#include "bench/bench_util.h"

#include <cstring>

namespace copier::bench {

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

bool SlotsMatchSource(simos::AddressSpace& mem, uint64_t arena, size_t slots,
                      size_t slot_bytes) {
  std::vector<uint8_t> image((slots + 1) * slot_bytes);
  COPIER_CHECK(mem.ReadBytes(arena, image.data(), image.size()).ok());
  for (size_t i = 1; i <= slots; ++i) {
    if (std::memcmp(image.data() + i * slot_bytes, image.data(), slot_bytes) != 0) {
      return false;
    }
  }
  return true;
}

PercentileSummary Summarize(const Histogram& hist) {
  PercentileSummary summary;
  if (hist.Count() == 0) {
    return summary;
  }
  summary.p50 = hist.Percentile(50);
  summary.p99 = hist.Percentile(99);
  summary.p999 = hist.Percentile(99.9);
  return summary;
}

const hw::TimingModel& SelectTiming(int argc, char** argv) {
  static hw::TimingModel calibrated;
  if (HasFlag(argc, argv, "--calibrate")) {
    calibrated = hw::TimingModel::Calibrated();
    std::printf("(timing: calibrated on this host)\n");
    return calibrated;
  }
  return hw::TimingModel::Default();
}

BenchStack::BenchStack(const hw::TimingModel* timing, core::CopierConfig config,
                       apps::Mode mode)
    : mode_(mode) {
  simos::SimKernel::Config kconfig;
  kconfig.timing = timing;
  kernel = std::make_unique<simos::SimKernel>(kconfig);
  core::CopierService::Options options;
  options.config = config;
  options.timing = timing;
  service = std::make_unique<core::CopierService>(std::move(options));
  glue = std::make_unique<core::CopierLinux>(service.get(), kernel.get());
  if (mode == apps::Mode::kCopier) {
    glue->Install();
  }
}

}  // namespace copier::bench
