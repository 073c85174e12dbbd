// Channel sweep: non-blocking multi-channel DMA (DESIGN.md §9).
//
// The same steady-state large-copy loop runs over 1→8 DMA channels with
// asynchronous completion (rounds park their in-flight batches and the
// reaper lands them on later serves). Reported per configuration:
//   * throughput (GiB/s of virtual time) and speedup over 1 channel,
//   * dma_stall_cycles — busy-waits on a DMA completion (0: rounds park),
//   * dma_drain_wait_cycles — clock advanced to completions at barriers,
//   * parked rounds and ring-full CPU fallbacks,
//   * the DMA share of the moved bytes ("-" when no byte moved),
//   * whether the destination holds exactly the source bytes, at every
//     channel count.
//
// The scaling gate prints " NO " (bench_smoke.sh greps for it) when 4
// channels are less than kScalingFloor times faster than 1.
//
// --json additionally writes BENCH_dma_channels.json for scripts/bench_smoke.sh.
#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

constexpr double kScalingFloor = 1.5;  // 1 -> 4 channels

struct ChannelResult {
  size_t channels = 0;
  Cycles cycles = 0;
  uint64_t bytes = 0;
  uint64_t stall_cycles = 0;
  uint64_t drain_wait_cycles = 0;
  uint64_t parked_rounds = 0;
  uint64_t ring_full_fallbacks = 0;
  uint64_t dma_bytes = 0;
  uint64_t avx_bytes = 0;
  bool identical = false;  // destination bytes equal the source bytes
};

ChannelResult RunChannels(const hw::TimingModel& t, size_t channels) {
  core::CopierConfig config;
  config.dma_channel_count = channels;
  BenchStack stack(&t, config);
  apps::AppProcess* app = stack.NewApp("dmabench");
  const size_t kCopy = 1 * kMiB;
  constexpr int kIters = 24;
  const uint64_t src = app->Map(kCopy, "src");
  const uint64_t dst = app->Map(kCopy, "dst");
  std::vector<uint8_t> source(kCopy);
  Rng rng(0xD31A);  // same image in every configuration
  for (auto& b : source) {
    b = static_cast<uint8_t>(rng.Next());
  }
  COPIER_CHECK(app->proc()->mem().WriteBytes(src, source.data(), kCopy).ok());
  // Warm-up pass: populate the ATCache so the sweep measures the steady
  // state, not first-touch page walks (cold translations cost ~240 cycles a
  // page and mask the channel scaling).
  app->lib()->amemcpy(dst, src, kCopy, &app->ctx());
  COPIER_CHECK_OK(app->lib()->csync(dst, kCopy, &app->ctx()));

  const Cycles start = stack.service->engine_ctx().now();
  const core::Engine::Stats before = stack.service->TotalStats();
  for (int i = 0; i < kIters; ++i) {
    app->lib()->amemcpy(dst, src, kCopy, &app->ctx());
    COPIER_CHECK_OK(app->lib()->csync(dst, kCopy, &app->ctx()));
  }
  stack.service->DrainAll();

  ChannelResult result;
  result.channels = channels;
  result.cycles = stack.service->engine_ctx().now() - start;
  result.bytes = static_cast<uint64_t>(kCopy) * kIters;
  const core::Engine::Stats after = stack.service->TotalStats();
  result.stall_cycles = after.dma_stall_cycles - before.dma_stall_cycles;
  result.drain_wait_cycles = after.dma_drain_wait_cycles - before.dma_drain_wait_cycles;
  result.parked_rounds = after.dma_rounds_parked - before.dma_rounds_parked;
  result.ring_full_fallbacks = after.dma_ring_full_fallbacks - before.dma_ring_full_fallbacks;
  result.dma_bytes = after.dma_bytes_completed - before.dma_bytes_completed;
  result.avx_bytes = after.avx_bytes - before.avx_bytes;

  std::vector<uint8_t> image(kCopy);
  if (!app->proc()->mem().ReadBytes(dst, image.data(), image.size()).ok()) {
    std::fprintf(stderr, "destination readback failed at %zu channels\n", channels);
  }
  result.identical = image == source;
  return result;
}

void Run(int argc, char** argv) {
  const hw::TimingModel& t = SelectTiming(argc, argv);
  PrintBanner("DMA channel sweep: async parked rounds, 1 -> 8 channels");
  const std::vector<size_t> channel_counts = {1, 2, 4, 8};

  std::vector<ChannelResult> sweep;
  for (size_t channels : channel_counts) {
    sweep.push_back(RunChannels(t, channels));
  }
  const ChannelResult& base = sweep.front();  // 1 channel

  TextTable table({"config", "GiB/s", "vs 1ch", "stall cyc", "drain cyc", "parked",
                   "fallbacks", "DMA share", "identical"});
  auto add_row = [&](const ChannelResult& r, const char* label) {
    const double gibps = GiBps(r.bytes, r.cycles);
    const uint64_t moved = r.dma_bytes + r.avx_bytes;
    table.AddRow({label, TextTable::Num(gibps),
                  TextTable::Num(static_cast<double>(base.cycles) / r.cycles, 2) + "x",
                  TextTable::Num(r.stall_cycles, 0), TextTable::Num(r.drain_wait_cycles, 0),
                  TextTable::Num(r.parked_rounds, 0),
                  TextTable::Num(r.ring_full_fallbacks, 0),
                  moved == 0 ? "-" : TextTable::Num(100.0 * r.dma_bytes / moved, 0) + "%",
                  r.identical ? "yes" : "NO"});
    if (!r.identical) {
      std::fprintf(stderr, "MISMATCH: %s image differs from the source bytes\n", label);
    }
  };
  const std::vector<std::string> labels = {"1 ch, async", "2 ch, async", "4 ch, async",
                                           "8 ch, async"};
  for (size_t i = 0; i < sweep.size(); ++i) {
    add_row(sweep[i], labels[i].c_str());
  }
  table.Print();
  const double scaling = static_cast<double>(base.cycles) / sweep[2].cycles;
  std::printf("\nscaling gate %s (1 -> 4 async channels: %.2fx, floor %.1fx)\n",
              scaling >= kScalingFloor ? "ok" : "NO", scaling, kScalingFloor);

  if (HasFlag(argc, argv, "--json")) {
    std::ofstream out("BENCH_dma_channels.json");
    auto emit = [&](const ChannelResult& r) {
      out << "{\"channels\": " << r.channels << ", \"gibps\": " << GiBps(r.bytes, r.cycles)
          << ", \"cycles\": " << r.cycles
          << ", \"stall_cycles\": " << r.stall_cycles
          << ", \"drain_wait_cycles\": " << r.drain_wait_cycles
          << ", \"parked_rounds\": " << r.parked_rounds
          << ", \"ring_full_fallbacks\": " << r.ring_full_fallbacks
          << ", \"dma_bytes\": " << r.dma_bytes << ", \"avx_bytes\": " << r.avx_bytes
          << ", \"speedup_vs_1ch_async\": "
          << static_cast<double>(base.cycles) / r.cycles << ", \"identical_result\": "
          << (r.identical ? "true" : "false") << "}";
    };
    out << "{\n  \"bench\": \"dma_channels\",\n  \"copy_bytes\": " << (1 * kMiB)
        << ",\n  \"iters\": 24,\n  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      out << "    ";
      emit(sweep[i]);
      out << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"scaling_1_to_4\": " << scaling
        << ",\n  \"scaling_floor\": " << kScalingFloor << "\n}\n";
    std::printf("wrote BENCH_dma_channels.json\n");
  }
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(argc, argv);
  return 0;
}
