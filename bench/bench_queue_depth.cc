// Queue-depth sweep: coordination cost of the Engine's pending-task lookups
// (the pending-range interval index) as the outstanding-task count grows.
//
// Every depth runs one submission stream — mostly-disjoint small copies
// through a shared working region, a slice of absorption chains, plus
// promotes and aborts arriving at full depth — and checks the final memory
// image against an in-order memcpy replay of the same stream. Reported:
//   * engine virtual cycles per task (the service-side cost of one task),
//   * dep_tasks_scanned per task (candidates examined by all lookups),
//   * dep_probes (lookups issued).
// The index makes each lookup O(log n + k), so cycles and candidates per
// task stay roughly flat with depth; the flatness gate fails the run if
// cycles per task at the largest depth exceed 2x those at the smallest.
//
// --json additionally writes BENCH_queue_depth.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

struct DepthResult {
  size_t depth = 0;
  size_t peak_pending = 0;
  uint64_t engine_cycles = 0;
  uint64_t dep_probes = 0;
  uint64_t dep_tasks_scanned = 0;
  uint64_t bytes_copied = 0;
  bool matches_reference = false;  // final image == in-order memcpy replay
};

// Cycles per task at the largest depth may be at most this multiple of those
// at the smallest depth.
constexpr double kFlatnessBound = 2.0;

DepthResult RunDepth(const hw::TimingModel& timing, size_t depth) {
  core::CopierConfig config;
  config.queue_capacity = 16384;  // hold the whole wave before serving
  BenchStack stack(&timing, config);
  apps::AppProcess* app = stack.NewApp("depthbench");
  core::Client* client = stack.service->ClientById(app->proc()->copier_client_id());

  // Arena: S = read-only source pool; W = working region (2 slots of
  // headroom per task keeps most writes disjoint, with real overlap chains);
  // X = abort scratch, one slot per aborted task, never read.
  const size_t kLen = kKiB;
  const size_t kS = 512 * kKiB;
  const size_t kW = depth * 2 * kLen;
  const size_t kAborts = 8;
  const size_t kTotal = kS + kW + kAborts * kLen;
  const uint64_t arena = app->Map(kTotal, "arena");
  const uint64_t w_base = arena + kS;
  const uint64_t x_base = arena + kS + kW;

  // Patterned initial bytes, so a copy that lands wrong bytes (or none)
  // changes the image. `reference` replays every copy in submission order.
  Rng fill_rng(0xF111 ^ depth);
  std::vector<uint8_t> reference(kTotal);
  for (auto& byte : reference) {
    byte = static_cast<uint8_t>(fill_rng.Next());
  }
  COPIER_CHECK_OK(app->proc()->mem().WriteBytes(arena, reference.data(), kTotal, nullptr));

  Rng rng(0xC0FFEE ^ depth);
  std::vector<uint64_t> recent_dsts;  // absorption-chain feeders
  size_t aborts_submitted = 0;
  for (size_t i = 0; i < depth; ++i) {
    if (i % (depth / kAborts) == depth / kAborts - 1 && aborts_submitted < kAborts) {
      // Abort victim: aborted before it executes, so its X slot keeps the
      // initial bytes (no reference effect).
      app->lib()->amemcpy(x_base + aborts_submitted * kLen, arena + rng.Below(kS - kLen),
                          kLen, &app->ctx());
      ++aborts_submitted;
      continue;
    }
    const uint64_t dst = w_base + (i * 2 * kLen) % kW;
    uint64_t src;
    if (i % 16 == 5 && !recent_dsts.empty()) {
      src = recent_dsts[rng.Below(recent_dsts.size())];  // RAW on a pending write
    } else {
      src = arena + rng.Below(kS - kLen);
    }
    app->lib()->amemcpy(dst, src, kLen, &app->ctx());
    std::memcpy(reference.data() + (dst - arena), reference.data() + (src - arena), kLen);
    recent_dsts.push_back(dst);
    if (recent_dsts.size() > 8) {
      recent_dsts.erase(recent_dsts.begin());
    }
  }

  // Ingest the whole wave without executing (ingestion is capped per poll):
  // the pending list reaches full depth before the first byte moves.
  while (!client->default_pair().user.copy_q.Empty()) {
    stack.service->Serve(*client, 0);
  }
  DepthResult result;
  result.depth = depth;
  result.peak_pending = client->pending.size();

  // Sync traffic at full depth: abort the X writers, promote a few ranges.
  for (size_t a = 0; a < aborts_submitted; ++a) {
    core::SyncTask sync;
    sync.kind = core::SyncTask::Kind::kAbort;
    sync.addr = core::MemRef::User(client->space(), x_base + a * kLen);
    sync.length = kLen;
    client->default_pair().user.sync_q.TryPush(std::move(sync));
  }
  for (size_t p = 0; p < 4; ++p) {
    core::SyncTask sync;
    sync.kind = core::SyncTask::Kind::kPromote;
    sync.addr = core::MemRef::User(client->space(), w_base + (p * kW / 4) % kW);
    sync.length = 4 * kLen;
    client->default_pair().user.sync_q.TryPush(std::move(sync));
  }
  stack.service->DrainAll();

  const core::Engine::Stats stats = stack.service->TotalStats();
  result.engine_cycles = stack.service->engine_ctx().now();
  result.dep_probes = stats.dep_probes;
  result.dep_tasks_scanned = stats.dep_tasks_scanned;
  result.bytes_copied = stats.bytes_copied;

  std::vector<uint8_t> image(kTotal);
  COPIER_CHECK_OK(app->proc()->mem().ReadBytes(arena, image.data(), image.size()));
  result.matches_reference = image == reference;
  return result;
}

void Run(int argc, char** argv) {
  const hw::TimingModel& timing = SelectTiming(argc, argv);
  PrintBanner("Queue-depth sweep: interval-indexed pending-task lookups");
  const std::vector<size_t> depths = {16, 64, 256, 1024, 2048, 4096};

  TextTable table({"depth", "cyc/task", "scanned/task", "identical"});
  std::vector<DepthResult> rows;
  for (size_t depth : depths) {
    const DepthResult r = RunDepth(timing, depth);
    rows.push_back(r);
    table.AddRow({TextTable::Num(depth, 0),
                  TextTable::Num(static_cast<double>(r.engine_cycles) / depth, 0),
                  TextTable::Num(static_cast<double>(r.dep_tasks_scanned) / depth, 1),
                  r.matches_reference ? "yes" : "NO"});
    if (!r.matches_reference) {
      std::fprintf(stderr, "MISMATCH at depth %zu: image differs from the in-order replay\n",
                   depth);
    }
  }
  table.Print();
  std::printf("\npeak pending at the largest depth: %zu\n", rows.back().peak_pending);
  const uint64_t first_cpt = rows.front().engine_cycles / rows.front().depth;
  const uint64_t last_cpt = rows.back().engine_cycles / rows.back().depth;
  const double flatness = static_cast<double>(last_cpt) / static_cast<double>(first_cpt);
  const bool flat = flatness <= kFlatnessBound;
  std::printf("flatness gate %s (cycles_per_task %llu at depth %zu vs %llu at depth %zu = %.2fx, "
              "bound %.1fx)\n",
              flat ? "ok" : "NO", static_cast<unsigned long long>(last_cpt), rows.back().depth,
              static_cast<unsigned long long>(first_cpt), rows.front().depth, flatness,
              kFlatnessBound);

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_queue_depth.json");
    out << "{\n  \"bench\": \"queue_depth\",\n  \"depths\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const DepthResult& r = rows[i];
      out << "    {\"depth\": " << r.depth << ", \"engine_cycles\": " << r.engine_cycles
          << ", \"cycles_per_task\": " << r.engine_cycles / r.depth
          << ", \"dep_probes\": " << r.dep_probes
          << ", \"dep_tasks_scanned\": " << r.dep_tasks_scanned
          << ", \"scanned_per_task\": " << static_cast<double>(r.dep_tasks_scanned) / r.depth
          << ", \"bytes_copied\": " << r.bytes_copied << ", \"peak_pending\": " << r.peak_pending
          << ", \"identical_result\": " << (r.matches_reference ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"flatness\": {\"cycles_per_task_ratio\": " << flatness
        << ", \"bound\": " << kFlatnessBound << ", \"pass\": " << (flat ? "true" : "false")
        << "}\n}\n";
    std::printf("wrote BENCH_queue_depth.json\n");
  }
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(argc, argv);
  return 0;
}
