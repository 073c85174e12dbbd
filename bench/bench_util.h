// Shared plumbing for the figure/table benches.
//
// Every bench runs the *real* engine/apps in virtual time (DESIGN.md §1):
// app contexts and the Copier engine context advance cycle clocks charged
// from TimingModel; latencies compose exactly as on a dedicated-copier-core
// machine. Cycles are reported in microseconds at the paper's nominal
// 2.9 GHz. Pass --calibrate to measure AVX/ERMS curves on the host instead
// of using the deterministic defaults.
#ifndef COPIER_BENCH_BENCH_UTIL_H_
#define COPIER_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_util.h"
#include "src/common/histogram.h"
#include "src/common/table.h"
#include "src/core/linux_glue.h"

namespace copier::bench {

inline constexpr double kNominalGHz = 2.9;

inline double Us(Cycles cycles) { return static_cast<double>(cycles) / (kNominalGHz * 1e3); }
inline double GiBps(uint64_t bytes, Cycles cycles) {
  if (cycles == 0) {
    return 0;
  }
  return static_cast<double>(bytes) / cycles * kNominalGHz * 1e9 / (1024.0 * 1024 * 1024);
}

inline std::vector<size_t> StandardSizes() {
  return {1 * kKiB, 4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB};
}

// Latency tail summary shared by the latency benches (bench_binder_ipc,
// bench_fig11_redis, bench_serve) so each doesn't re-derive its own
// percentile plumbing.
struct PercentileSummary {
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};
PercentileSummary Summarize(const Histogram& hist);

// Returns the timing model selected by argv (--calibrate measures the host).
const hw::TimingModel& SelectTiming(int argc, char** argv);
bool HasFlag(int argc, char** argv, const std::string& flag);

// True when each of the `slots` destination slots that follow the source slot
// at `arena` (slot_bytes each) holds the source slot's bytes: the byte check
// of the copy-wave benches.
bool SlotsMatchSource(simos::AddressSpace& mem, uint64_t arena, size_t slots,
                      size_t slot_bytes);

// A full virtual-time stack: kernel + manual-mode service + glue.
class BenchStack {
 public:
  explicit BenchStack(const hw::TimingModel* timing, core::CopierConfig config = {},
                      apps::Mode mode = apps::Mode::kCopier);

  apps::AppProcess* NewApp(const std::string& name) {
    apps_.push_back(
        std::make_unique<apps::AppProcess>(kernel.get(), service.get(), mode_, name));
    return apps_.back().get();
  }
  apps::AppProcess* NewSyncApp(const std::string& name) {
    apps_.push_back(std::make_unique<apps::AppProcess>(kernel.get(), service.get(),
                                                       apps::Mode::kSync, name));
    return apps_.back().get();
  }

  std::unique_ptr<simos::SimKernel> kernel;
  std::unique_ptr<core::CopierService> service;
  std::unique_ptr<core::CopierLinux> glue;

 private:
  apps::Mode mode_;
  std::vector<std::unique_ptr<apps::AppProcess>> apps_;
};

}  // namespace copier::bench

#endif  // COPIER_BENCH_BENCH_UTIL_H_
