// Figure 9: throughput of Copier handling Copy Tasks vs the kernel's copy
// (ERMS) and userspace copy (AVX2), with 0% and 75% buffer repetition, plus
// the ATCache ablation.
//
// Paper numbers to reproduce in shape: Copier up to ~158% over ERMS (~55% at
// 4 KiB) and ~38% over AVX2 (33% at 4 KiB) with no repetition; with 75%
// repetition +63%/+32%, ATCache contributing 2–11%.
//
// The gate line prints " NO " (bench_smoke.sh greps for it) unless Copier
// beats AVX2 at 256 KiB in both repetition tables and the ATCache gain at
// 256 KiB with 75% repetition is positive.
#include "bench/bench_util.h"

#include "src/common/rng.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

// Virtual time for Copier to drain `count` copies of `size`, with the given
// buffer-repetition rate. `stats_out` (optional) receives the engine
// counters of the run — the DMA dispatch picture behind the throughput.
Cycles CopierDrainTime(const hw::TimingModel& timing, size_t size, int count,
                       double repetition, bool atcache, uint64_t seed,
                       core::Engine::Stats* stats_out = nullptr) {
  core::CopierConfig config;
  config.enable_atcache = atcache;
  BenchStack stack(&timing, config);
  apps::AppProcess* app = stack.NewApp("copybench");
  // Buffer pool: with repetition r, a copy reuses a recent buffer pair with
  // probability r; otherwise it uses a fresh one.
  constexpr size_t kPool = 8;
  std::vector<uint64_t> srcs;
  std::vector<uint64_t> dsts;
  const size_t fresh_needed = static_cast<size_t>(count * (1.0 - repetition)) + kPool + 1;
  for (size_t i = 0; i < fresh_needed; ++i) {
    srcs.push_back(app->Map(size, "src"));
    dsts.push_back(app->Map(size, "dst"));
  }
  stack.service->engine().atcache().Attach(app->proc()->mem());

  Rng rng(seed);
  size_t fresh_cursor = kPool;
  // Submit in waves of 8 with the service polling in between (as the
  // concurrent Copier thread would), so the engine never idles waiting for
  // submissions and the pending list stays realistic.
  core::Client* client = stack.service->ClientById(app->proc()->copier_client_id());
  for (int i = 0; i < count; ++i) {
    size_t index;
    if (rng.NextDouble() < repetition || fresh_cursor >= srcs.size()) {
      index = rng.Below(kPool);  // recycled buffer (ATCache hit territory)
    } else {
      index = fresh_cursor++;
    }
    app->lib()->amemcpy(dsts[index], srcs[index], size, nullptr);
    if (i % 8 == 7) {
      stack.service->Serve(*client);
    }
  }
  stack.service->DrainAll();
  if (stats_out != nullptr) {
    *stats_out = stack.service->TotalStats();
  }
  return stack.service->engine_ctx().now();
}

void Run(const hw::TimingModel& t) {
  constexpr int kCount = 64;
  constexpr size_t kGateSize = 256 * kKiB;
  PrintBanner("Figure 9: copy throughput (GiB/s), Copier (AVX+DMA) vs ERMS vs AVX2");
  std::vector<double> gate_vs_avx;  // Copier/AVX2 - 1 at kGateSize, per table
  double gate_atcache_gain = 0;     // Copier/noATC - 1 at kGateSize, 75% table
  for (double repetition : {0.0, 0.75}) {
    std::printf("\n-- buffer repetition %.0f%% --\n", repetition * 100);
    TextTable table({"size", "ERMS", "AVX2", "Copier", "Copier/noATC", "vs ERMS", "vs AVX2",
                     "ATCache gain"});
    core::Engine::Stats dma_totals;
    for (size_t size : StandardSizes()) {
      const uint64_t bytes = static_cast<uint64_t>(size) * kCount;
      const double erms = GiBps(bytes, t.erms.CopyCycles(size) * kCount);
      const double avx = GiBps(bytes, t.avx.CopyCycles(size) * kCount);
      core::Engine::Stats stats;
      const double copier =
          GiBps(bytes, CopierDrainTime(t, size, kCount, repetition, true, 42, &stats));
      const double copier_noatc =
          GiBps(bytes, CopierDrainTime(t, size, kCount, repetition, false, 42));
      dma_totals.dma_bytes_completed += stats.dma_bytes_completed;
      dma_totals.dma_rounds_parked += stats.dma_rounds_parked;
      dma_totals.dma_ring_full_fallbacks += stats.dma_ring_full_fallbacks;
      dma_totals.dma_stall_cycles += stats.dma_stall_cycles;
      dma_totals.dma_drain_wait_cycles += stats.dma_drain_wait_cycles;
      if (size == kGateSize) {
        gate_vs_avx.push_back(copier / avx - 1);
        gate_atcache_gain = copier / copier_noatc - 1;
      }
      table.AddRow({TextTable::Bytes(size), TextTable::Num(erms), TextTable::Num(avx),
                    TextTable::Num(copier), TextTable::Num(copier_noatc),
                    TextTable::Num((copier / erms - 1) * 100, 0) + "%",
                    TextTable::Num((copier / avx - 1) * 100, 0) + "%",
                    TextTable::Num((copier / copier_noatc - 1) * 100, 1) + "%"});
    }
    table.Print();
    std::printf("Copier DMA dispatch: %s offloaded, %llu parked rounds, %llu ring-full "
                "fallbacks, %llu stall cyc, %llu drain cyc\n",
                TextTable::Bytes(dma_totals.dma_bytes_completed).c_str(),
                static_cast<unsigned long long>(dma_totals.dma_rounds_parked),
                static_cast<unsigned long long>(dma_totals.dma_ring_full_fallbacks),
                static_cast<unsigned long long>(dma_totals.dma_stall_cycles),
                static_cast<unsigned long long>(dma_totals.dma_drain_wait_cycles));
  }
  COPIER_CHECK(gate_vs_avx.size() == 2) << "StandardSizes() lost the 256 KiB row";
  const bool gate = gate_vs_avx[0] > 0 && gate_vs_avx[1] > 0 && gate_atcache_gain > 0;
  std::printf("\ngate %s (256 KiB: vs AVX2 %+.0f%% / %+.0f%% at 0%% / 75%% repetition, "
              "ATCache gain %+.1f%% at 75%%; each must be > 0)\n",
              gate ? "ok" : "NO", gate_vs_avx[0] * 100, gate_vs_avx[1] * 100,
              gate_atcache_gain * 100);
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv));
  return 0;
}
