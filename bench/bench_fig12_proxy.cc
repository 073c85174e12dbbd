// Figure 12: TinyProxy-like forwarding.
//   (a) throughput vs message size, sync vs Copier (lazy + absorption) vs zIO
//   (b) multi-instance scalability with per-process queues
//   (c) performance breakdown: async only / +hardware / +absorption
// Expected shape (paper): +7.2–32.3% throughput, zIO up to +11.6% and only
// >= 16 KiB; scalability to 16 threads; for 1 KiB async dominates, for
// 256 KiB hardware and absorption matter.
#include "bench/bench_util.h"

#include <chrono>
#include <memory>
#include <vector>

#include "src/apps/miniproxy.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

constexpr int kMessages = 24;

struct ProxyRun {
  Cycles proxy_span = 0;        // proxy-core busy span for kMessages
  Cycles engine_busy = 0;       // Copier-core busy cycles for kMessages
};

// Virtual time to forward kMessages of `body` bytes through one proxy.
ProxyRun ProxyRunOnce(const hw::TimingModel& t, size_t body_len, apps::Mode mode,
                      core::CopierConfig config) {
  BenchStack stack(&t, config, mode);
  apps::AppProcess* proxy = stack.NewApp("proxy");
  apps::AppProcess* client = stack.NewSyncApp("client");
  apps::MiniProxy mp(proxy);
  auto [client_sock, proxy_in] = stack.kernel->CreateSocketPair();
  auto [proxy_out, upstream] = stack.kernel->CreateSocketPair();
  const uint64_t cbuf = client->Map(body_len + kPageSize, "cbuf");

  const std::vector<uint8_t> body(body_len, 0x42);
  const auto msg = apps::MiniProxy::BuildMessage(1, body);
  client->io().Write(cbuf, msg.data(), msg.size(), nullptr);

  const Cycles start = proxy->ctx().now();
  const Cycles engine_start = stack.service->engine_ctx().now();
  const Cycles engine_blocked_start = stack.service->engine_ctx().blocked_cycles();
  core::Client* svc_client =
      mode == apps::Mode::kCopier
          ? stack.service->ClientById(proxy->proc()->copier_client_id())
          : nullptr;
  for (int i = 0; i < kMessages; ++i) {
    COPIER_CHECK(
        stack.kernel->Send(*client->proc(), client_sock, cbuf, msg.size(), nullptr).ok());
    auto forwarded = mp.ForwardOne(proxy_in, proxy_out, &proxy->ctx());
    COPIER_CHECK(forwarded.ok() && *forwarded) << forwarded.status().ToString();
    if (svc_client != nullptr) {
      stack.service->Serve(*svc_client);
    }
    // Upstream drains (its own core; skbs must return to the pool).
    Cycles d = 0;
    upstream->ConsumeRx(SIZE_MAX, &d, [&](simos::Skb* skb, size_t, size_t) {
      skb->pending_copies.fetch_add(1, std::memory_order_relaxed);
      simos::SimSocket::CompleteCopy(&stack.kernel->skb_pool(), skb);
    });
  }
  stack.service->DrainAll();
  // The pipeline is proxy-bound: its busy span is the throughput limiter;
  // with Copier, the engine runs on its own core in parallel.
  ProxyRun run;
  run.proxy_span = proxy->ctx().now() - start;
  run.engine_busy = (stack.service->engine_ctx().now() - engine_start) -
                    (stack.service->engine_ctx().blocked_cycles() - engine_blocked_start);
  return run;
}

Cycles ProxySpan(const hw::TimingModel& t, size_t body_len, apps::Mode mode,
                 core::CopierConfig config) {
  return ProxyRunOnce(t, body_len, mode, config).proxy_span;
}

double Mps(Cycles span) {
  return static_cast<double>(kMessages) / (Us(span) / 1e6);
}

void RunThroughput(const hw::TimingModel& t) {
  PrintBanner("Figure 12-a: TinyProxy forwarding throughput (K msgs/s)");
  TextTable table({"message", "baseline", "Copier", "zIO", "Copier gain", "zIO gain"});
  for (size_t body : StandardSizes()) {
    const double base = Mps(ProxySpan(t, body, apps::Mode::kSync, {}));
    const double copier = Mps(ProxySpan(t, body, apps::Mode::kCopier, {}));
    const double zio = Mps(ProxySpan(t, body, apps::Mode::kZio, {}));
    table.AddRow({TextTable::Bytes(body), TextTable::Num(base / 1e3),
                  TextTable::Num(copier / 1e3), TextTable::Num(zio / 1e3),
                  TextTable::Pct((copier / base - 1) * 100),
                  TextTable::Pct((zio / base - 1) * 100)});
  }
  table.Print();
}

void RunScalability(const hw::TimingModel& t) {
  PrintBanner("Figure 12-b: scalability — aggregate throughput, N proxy instances (16KiB)");
  TextTable table({"instances", "K tasks/s per queue", "aggregate K msgs/s", "speedup"});
  const ProxyRun single = ProxyRunOnce(t, 16 * kKiB, apps::Mode::kCopier, {});
  // Each instance has its own queues (per-process, lock-free). The shared
  // Copier thread saturates when the per-message engine busy time fills its
  // core; Copier auto-scales up to max_threads engines beyond that (§4.5.1) —
  // reported here for the paper's single-service configuration.
  const double per_instance = Mps(single.proxy_span);
  const double engine_cap =
      static_cast<double>(kMessages) / (Us(single.engine_busy) / 1e6);
  double base_agg = 0;
  for (int n : {1, 2, 4, 8, 16}) {
    const double aggregate = std::min(per_instance * n, engine_cap);
    if (n == 1) {
      base_agg = aggregate;
    }
    const double tasks_per_queue =
        std::min(per_instance, aggregate / n) * 3;  // ~3 tasks per message
    table.AddRow({std::to_string(n), TextTable::Num(tasks_per_queue / 1e3, 1),
                  TextTable::Num(aggregate / 1e3), TextTable::Num(aggregate / base_agg, 2)});
  }
  table.Print();
  std::printf("(engine saturates at %.0fK msgs/s; the paper scales to 16 threads with >130K "
              "tasks/s per queue)\n", engine_cap / 1e3);
}

// --scalability: the same 16-instance story under *real* Copier threads
// instead of the virtual-time composition above. Sixteen clients submit
// identical forwarding-sized copy waves to a 16-thread service; the sharded
// run-queue scheduler is compared against the global-mutex linear baseline
// on host wall clock, and the final memory images must match byte for byte.
struct ThreadedScaleResult {
  double wall_ms = 0;
  uint64_t bytes_copied = 0;
  core::CopierService::SchedStats sched;
  uint64_t checksum = 0;
};

ThreadedScaleResult ThreadedScaleRun(size_t threads, size_t instances, bool sharded) {
  constexpr size_t kSlots = 96;        // messages per instance
  constexpr size_t kSlotBytes = 16 * kKiB;  // the figure's message size
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = threads;
  options.config.max_threads = threads;
  options.config.enable_sharded_scheduler = sharded;
  // Threads far outnumber host cores here: let an idle thread reach the
  // steal/sleep path quickly instead of spinning away its OS quantum, so a
  // hot shard whose owner is descheduled is picked up promptly.
  options.config.idle_spins_before_sleep = 64;
  core::CopierService service(std::move(options));

  struct Instance {
    simos::Process* proc = nullptr;
    core::Client* client = nullptr;
    std::unique_ptr<lib::CopierLib> lib;
    uint64_t arena = 0;
  };
  std::vector<Instance> proxies(instances);
  for (size_t i = 0; i < instances; ++i) {
    Instance& proxy = proxies[i];
    proxy.proc = kernel.CreateProcess("proxy");
    proxy.client = service.AttachProcess(proxy.proc);
    proxy.lib = std::make_unique<lib::CopierLib>(proxy.client, &service);
    auto va = proxy.proc->mem().MapAnonymous((kSlots + 1) * kSlotBytes, "arena", true);
    COPIER_CHECK(va.ok());
    proxy.arena = *va;
    std::vector<uint8_t> msg(kSlotBytes, static_cast<uint8_t>(0x42 + i));
    COPIER_CHECK(proxy.proc->mem().WriteBytes(proxy.arena, msg.data(), msg.size()).ok());
  }
  for (auto& proxy : proxies) {
    for (size_t i = 0; i < kSlots; ++i) {
      proxy.lib->amemcpy(proxy.arena + (i + 1) * kSlotBytes, proxy.arena, kSlotBytes);
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  service.Start();
  for (auto& proxy : proxies) {
    COPIER_CHECK_OK(proxy.lib->csync_all());
  }
  const auto wall_end = std::chrono::steady_clock::now();

  ThreadedScaleResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  uint64_t hash = 1469598103934665603ull;  // FNV-1a over every arena
  std::vector<uint8_t> image((kSlots + 1) * kSlotBytes);
  for (auto& proxy : proxies) {
    COPIER_CHECK(proxy.proc->mem().ReadBytes(proxy.arena, image.data(), image.size()).ok());
    for (uint8_t byte : image) {
      hash = (hash ^ byte) * 1099511628211ull;
    }
  }
  result.checksum = hash;
  result.bytes_copied = service.TotalStats().bytes_copied;
  result.sched = service.sched_stats();
  service.Stop();
  return result;
}

void RunThreadedScalability() {
  PrintBanner("Figure 12-b (--scalability): real threads — sharded vs linear scheduler");
  TextTable table({"threads", "instances", "sharded ms", "linear ms", "speedup",
                   "steals", "identical"});
  for (size_t threads : {size_t{4}, size_t{16}}) {
    const size_t instances = 16;
    const ThreadedScaleResult sharded =
        ThreadedScaleRun(threads, instances, /*sharded=*/true);
    const ThreadedScaleResult linear =
        ThreadedScaleRun(threads, instances, /*sharded=*/false);
    table.AddRow({TextTable::Num(threads, 0), TextTable::Num(instances, 0),
                  TextTable::Num(sharded.wall_ms, 1), TextTable::Num(linear.wall_ms, 1),
                  TextTable::Num(linear.wall_ms / sharded.wall_ms, 2) + "x",
                  TextTable::Num(sharded.sched.steals, 0),
                  sharded.checksum == linear.checksum ? "yes" : "NO"});
    if (sharded.checksum != linear.checksum) {
      std::fprintf(stderr, "MISMATCH: sharded and linear images differ at %zu threads\n",
                   threads);
    }
  }
  table.Print();
  std::printf("(per-queue submission is lock-free either way; the scheduler pick is what "
              "the sharding removes from the global lock)\n");
}

void RunBreakdown(const hw::TimingModel& t) {
  PrintBanner("Figure 12-c: breakdown — async / +hardware / +absorption (proxy latency gain)");
  TextTable table({"message", "async only", "+hardware (DMA piggyback)", "+absorption (full)"});
  for (size_t body : {size_t{1 * kKiB}, size_t{256 * kKiB}}) {
    const double base = Mps(ProxySpan(t, body, apps::Mode::kSync, {}));
    core::CopierConfig async_only;
    async_only.use_dma = false;
    async_only.enable_absorption = false;
    core::CopierConfig with_hw;
    with_hw.enable_absorption = false;
    const double a = Mps(ProxySpan(t, body, apps::Mode::kCopier, async_only));
    const double h = Mps(ProxySpan(t, body, apps::Mode::kCopier, with_hw));
    const double f = Mps(ProxySpan(t, body, apps::Mode::kCopier, {}));
    table.AddRow({TextTable::Bytes(body),
                  TextTable::Pct((a / base - 1) * 100),
                  TextTable::Pct((h / base - 1) * 100),
                  TextTable::Pct((f / base - 1) * 100)});
  }
  table.Print();
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  if (copier::bench::HasFlag(argc, argv, "--scalability")) {
    copier::bench::RunThreadedScalability();
    return 0;
  }
  const auto& t = copier::bench::SelectTiming(argc, argv);
  copier::bench::RunThroughput(t);
  copier::bench::RunScalability(t);
  copier::bench::RunBreakdown(t);
  return 0;
}
