// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <kv-zipf|ipc-pipeline|deep-queue|copy-threaded|kv-threaded>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--git-rev <rev>]
//
// Generates the workload's inputs (a fixed number of parts, each a distinct
// trace) from the seed and runs one pass per part, then repeats passes for
// --seconds: virtual-time metrics pool the parts' samples and must repeat bit
// for bit in every later pass; host-time metrics are medians over passes.
// Every pass checks its outputs against a model. Prints a run header,
// one line per metric, and as the last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced pass (plus the tracing overhead), and the
// spans are written as Chrome trace-event JSON to --trace-out.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/serve_harness.h"
#include "src/layers.h"
#include "src/probe.h"
#include "src/stats.h"
#include "src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Seed reserved for confirming later claims; never used while tuning.
constexpr uint64_t kHeldOutSeed = 7919;

// ---- frozen workload constants --------------------------------------------------
//
// A run replays `parts` distinct traces of a workload, each derived from the
// seed; virtual-time metrics pool the samples of all parts, so their tails
// rest on more samples than one trace holds.

// kv-zipf: 64 B..16 KiB values, 10% proxy requests, 16 connections.
constexpr size_t kKvParts = 4;
constexpr size_t kKvRequests = 150000;  // per part
constexpr double kKvGapCycles = 10943;  // 265k rps offered
constexpr double kKvSloP99Us = 20;  // ~10x the unloaded p50
constexpr size_t kKvLadderRequests = 60000;
// Absolute offered rates the SLO ladder tries: geometric steps of 2.5%,
// rounded to three significant digits.
std::vector<double> Ladder(double from, double to) {
  std::vector<double> ladder;
  for (double rate = from; rate <= to; rate *= 1.025) {
    const double unit = std::pow(10.0, std::floor(std::log10(rate)) - 2);
    ladder.push_back(std::round(rate / unit) * unit);
  }
  return ladder;
}
const std::vector<double> kKvLadder = Ladder(150e3, 600e3);

// copy-threaded: waves of 4096 copies over 4 clients and a service thread.
constexpr size_t kCopyThreadedParts = 4;
constexpr size_t kCopyThreadedWaves = 8;  // per part

// kv-threaded: 4 connections, 2 service threads, host-paced.
constexpr size_t kThreadedRequests = 10000;
constexpr double kThreadedGapCycles = 20000;
constexpr double kThreadedNsPerCycle = 5;  // 20k cycles -> 100 us mean gap
constexpr uint64_t kStuckTimeoutNs = 50'000'000;
constexpr uint64_t kPassDeadlineNs = 40'000'000'000;  // later requests fail unissued

// ipc-pipeline: 4 clients, 64 KiB..1 MiB bodies.
constexpr size_t kIpcParts = 3;
constexpr size_t kIpcRequests = 20000;  // per part
constexpr double kIpcGapCycles = 480000;  // ~6k rps offered

// deep-queue: waves of 4096 copies.
constexpr size_t kDeepParts = 2;
constexpr size_t kDeepWaves = 8;  // per part

// Seed of part `part` of a run with `seed`: distinct across seeds and parts.
uint64_t PartSeed(uint64_t seed, size_t part) { return seed * 16 + part; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && argc % 2 == 1;
}

// Everything virtual a pass produced, folded into one value: two passes over
// the same inputs must agree on it exactly. On real threads only the checked
// outputs count.
uint64_t VirtualFingerprint(const PassOutput& p, bool real_threads) {
  uint64_t h = FnvValue(p.output_hash, 1469598103934665603ull);
  h = FnvValue(p.payload_bytes, h);
  h = FnvValue(p.attempted, h);
  h = FnvValue(p.failed, h);
  if (!real_threads) {
    h = Fnv(p.latency_us.data(), p.latency_us.size() * sizeof(double), h);
    h = Fnv(p.lag_cycles.data(), p.lag_cycles.size() * sizeof(double), h);
    h = Fnv(p.copy_window_us.data(), p.copy_window_us.size() * sizeof(double), h);
    h = FnvValue(p.span_us, h);
  }
  return h;
}

struct Workload {
  size_t parts = 1;
  std::function<PassOutput(size_t part, Tracer*)> pass;
  // The SLO ladder, kv-zipf only. Elsewhere slo_rps repeats throughput_rps,
  // so that every workload reports every metric.
  std::function<double()> slo_rps;
  // Checks part 0's first pass against a reference; null: none.
  std::function<bool(const PassOutput&)> cross_check;
  // Runs on real threads: the virtual results (host-clock latencies on
  // kv-threaded) vary between passes; only the checked outputs repeat.
  bool real_threads = false;
};

Workload MakeWorkload(const Args& args) {
  Workload w;
  const uint64_t seed = args.seed;
  if (args.workload == "kv-zipf" || args.workload == "kv-threaded") {
    const bool threaded = args.workload == "kv-threaded";
    w.parts = threaded ? 1 : kKvParts;
    auto inputs = std::make_shared<std::vector<KvInputs>>();
    for (size_t part = 0; part < w.parts; ++part) {
      inputs->push_back(threaded ? MakeKvInputs(PartSeed(seed, part), kThreadedRequests,
                                                kThreadedGapCycles, 4, 0.0)
                                 : MakeKvInputs(PartSeed(seed, part), kKvRequests,
                                                kKvGapCycles, 16, 0.1));
    }
    w.pass = [inputs, threaded](size_t part, Tracer* tracer) {
      KvOptions options;
      options.tracer = tracer;
      if (threaded) {
        options.threaded = true;
        options.threads = 2;
        options.ns_per_cycle = kThreadedNsPerCycle;
        options.stuck_timeout_ns = kStuckTimeoutNs;
        options.pass_deadline_ns = kPassDeadlineNs;
      }
      return RunKvPass((*inputs)[part], options);
    };
    w.real_threads = threaded;
    if (threaded) {
      return w;
    }
    w.slo_rps = [seed] {
      return SloRate(kKvLadder, kKvSloP99Us, [seed](double rate) {
        const KvInputs in =
            MakeKvInputs(seed, kKvLadderRequests, kNominalGHz * 1e9 / rate, 16, 0.1);
        const PassOutput p = RunKvPass(in, KvOptions{});
        return RungResult{Percentile(p.latency_us, 99),
                          BacklogGrows(p.lag_cycles, UsToCycles(5))};
      });
    };
    // The driver must reproduce the harness it mirrors on the same trace.
    w.cross_check = [inputs](const PassOutput& pass) {
      copier::apps::ServeOptions options;
      options.workload = inputs->front().shape;
      options.trace = inputs->front().trace;
      const copier::apps::ServeResult ref = copier::apps::RunServeVirtual(options);
      bool same = ref.store_hash == pass.store_hash && ref.replies_ok &&
                  ref.records.size() == pass.reply_hashes.size();
      for (size_t i = 0; same && i < ref.records.size(); ++i) {
        same = ref.records[i].via_proxy || ref.records[i].reply_hash == pass.reply_hashes[i];
      }
      return same;
    };
  } else if (args.workload == "ipc-pipeline") {
    w.parts = kIpcParts;
    auto inputs = std::make_shared<std::vector<IpcInputs>>();
    for (size_t part = 0; part < w.parts; ++part) {
      inputs->push_back(MakeIpcInputs(PartSeed(seed, part), kIpcRequests, kIpcGapCycles));
    }
    w.pass = [inputs](size_t part, Tracer* tracer) { return RunIpcPass((*inputs)[part], tracer); };
  } else if (args.workload == "deep-queue") {
    w.parts = kDeepParts;
    auto inputs = std::make_shared<std::vector<DeepInputs>>();
    for (size_t part = 0; part < w.parts; ++part) {
      inputs->push_back(MakeDeepInputs(PartSeed(seed, part), kDeepWaves));
    }
    w.pass = [inputs](size_t part, Tracer* tracer) { return RunDeepPass((*inputs)[part], tracer); };
  } else if (args.workload == "copy-threaded") {
    w.parts = kCopyThreadedParts;
    auto inputs = std::make_shared<std::vector<ThreadedInputs>>();
    for (size_t part = 0; part < w.parts; ++part) {
      inputs->push_back(MakeThreadedInputs(PartSeed(seed, part), kCopyThreadedWaves));
    }
    w.pass = [inputs](size_t part, Tracer* tracer) {
      return RunThreadedPass((*inputs)[part], tracer);
    };
    w.real_threads = true;
  }
  return w;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Timed-phase ops per host second (unscaled).
double OpsPerSecond(const PassOutput& p) {
  return p.timed_s > 0 ? static_cast<double>(p.latency_us.size()) / p.timed_s : 0;
}

void PrintHeader(const Args& args) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("# perfbench workload=%s seed=%llu held_out_seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHeldOutSeed), args.seconds, args.trace ? 1 : 0);
  std::printf("# git_rev=%s host=%s cores=%u build=%s\n", args.git_rev.c_str(), host,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
}

int Main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // moves a pass's large buffers onto the heap only after the first free —
  // peak RSS would then depend on how many passes a run happened to make.
  // Buffers up to 64 MiB come from the heap from the start, and freed heap
  // is kept for reuse rather than trimmed; the simulated physical memory
  // (larger) stays mmapped.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--git-rev <rev>]\n");
    return 2;
  }
  const uint64_t run_start = HostNowNs();
  auto elapsed_s = [&] { return static_cast<double>(HostNowNs() - run_start) / 1e9; };
  PrintHeader(args);
  Workload w = MakeWorkload(args);
  if (!w.pass) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const PassOutput& p) {
    attempted += p.attempted;
    failed += p.failed;
  };

  // The machine-speed probe brackets every pass; the pass's host times are
  // scaled by the probe's mean over the reference time.
  std::vector<double> scales;
  auto run_pass = [&](size_t part, Tracer* tracer) {
    const double before = ProbeSeconds();
    PassOutput p = w.pass(part, tracer);
    scales.push_back((before + ProbeSeconds()) / 2 / kProbeReferenceSeconds);
    account(p);
    return p;
  };
  // Host samples: every pass but the first, which warms caches and the
  // allocator.
  std::vector<double> setup;
  std::vector<double> ops_per_s;
  std::vector<double> raw_ops_per_s;  // unscaled, for the tracing overhead
  auto host_sample = [&](const PassOutput& p) {
    const double scale = scales.back();
    std::printf("# pass %zu: scale %.4f setup_s %.6f host_ops_per_s %.1f (unscaled: %.6f, %.1f)\n",
                scales.size(), scale, p.setup_s / scale, OpsPerSecond(p) * scale, p.setup_s,
                OpsPerSecond(p));
    if (scales.size() > 1) {
      setup.push_back(p.setup_s / scale);
      ops_per_s.push_back(OpsPerSecond(p) * scale);
      raw_ops_per_s.push_back(OpsPerSecond(p));
    }
  };

  // One pass per part gives the virtual-time results.
  std::vector<PassOutput> parts;
  std::vector<uint64_t> fingerprints;
  for (size_t part = 0; part < w.parts; ++part) {
    parts.push_back(run_pass(part, nullptr));
    fingerprints.push_back(VirtualFingerprint(parts.back(), w.real_threads));
    host_sample(parts.back());
  }
  // Later passes cycle through the parts again; each must repeat its part's
  // virtual results exactly.
  size_t repeats = 0;
  auto repeat_pass = [&](Tracer* tracer) {
    const size_t part = repeats++ % w.parts;
    PassOutput p = run_pass(part, tracer);
    if (VirtualFingerprint(p, w.real_threads) != fingerprints[part]) {
      std::fprintf(stderr, "MISMATCH: pass %zu differs from the first pass of part %zu\n",
                   scales.size(), part);
      correct = false;
    }
    return p;
  };

  double slo = 0;
  if (w.slo_rps && !args.trace) {
    slo = w.slo_rps();
  }
  if (w.cross_check) {
    ++attempted;
    if (!w.cross_check(parts.front())) {
      std::fprintf(stderr, "MISMATCH: driver differs from apps::RunServeVirtual\n");
      ++failed;
      correct = false;
    }
  }

  std::vector<LayerMetric> metrics;
  if (!args.trace) {
    do {
      host_sample(repeat_pass(nullptr));
    } while (elapsed_s() < args.seconds);
    std::vector<double> latency;
    double span_s = 0;
    double payload = 0;
    for (const PassOutput& p : parts) {
      latency.insert(latency.end(), p.latency_us.begin(), p.latency_us.end());
      span_s += p.span_us / 1e6;
      payload += static_cast<double>(p.payload_bytes);
    }
    if (!PercentileSupported(latency.size(), 99.9)) {
      std::fprintf(stderr, "latency_p999_us has fewer than 10 samples beyond it (n=%zu)\n",
                   latency.size());
      correct = false;
    }
    std::printf("# latency samples: %zu over %zu parts; passes: %zu\n", latency.size(),
                parts.size(), scales.size());
    const double throughput = span_s > 0 ? static_cast<double>(latency.size()) / span_s : 0;
    metrics = {
        {"setup_s", "s", Median(setup)},
        {"latency_p50_us", "us", Percentile(latency, 50)},
        {"latency_p99_us", "us", Percentile(latency, 99)},
        {"latency_p999_us", "us", Percentile(latency, 99.9)},
        {"slo_rps", "1/s", w.slo_rps ? slo : throughput},
        {"throughput_rps", "1/s", throughput},
        {"goodput_gibps", "GiB/s", span_s > 0 ? payload / span_s / (1024.0 * 1024 * 1024) : 0},
        {"host_ops_per_s", "1/s", Median(ops_per_s)},
        {"peak_rss_mb", "MiB", PeakRssMb()},
    };
  } else {
    // Untraced passes give the overhead base; then one traced pass with the
    // glue interposer installed, which must repeat its part exactly.
    while (raw_ops_per_s.empty() || elapsed_s() < args.seconds / 2) {
      host_sample(repeat_pass(nullptr));
    }
    Tracer tracer;
    const PassOutput traced = repeat_pass(&tracer);
    metrics = LayerMetrics(traced, tracer);
    // Unscaled on both sides: within one run the probe scale cancels.
    const double base = Median(raw_ops_per_s);
    metrics.push_back(
        {"trace.overhead_frac", "ratio", base > 0 ? 1 - OpsPerSecond(traced) / base : 0});
    if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out, tracer.spans(), 2000)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  correct = correct && failed == 0;

  JsonObject values;
  for (const LayerMetric& m : metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    values.AddRaw(m.name, JsonObject().Add("value", m.value).Add("unit", m.unit).str());
  }
  std::printf("%s\n", JsonObject()
                          .Add("correct", correct)
                          .Add("attempted", attempted)
                          .Add("failed", failed)
                          .AddRaw("metrics", values.str())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
