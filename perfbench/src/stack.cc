#include <algorithm>

#include "src/workloads.h"

namespace perfbench {

using copier::apps::AppProcess;
namespace core = copier::core;
namespace simos = copier::simos;

Stack::Stack(bool threaded, size_t threads, Tracer* tracer) : threaded_(threaded) {
  simos::SimKernel::Config kconfig;
  kconfig.timing = &copier::hw::TimingModel::Default();
  kernel = std::make_unique<simos::SimKernel>(kconfig);
  core::CopierService::Options soptions;
  soptions.timing = kconfig.timing;
  soptions.mode = threaded ? core::CopierService::Mode::kThreaded
                           : core::CopierService::Mode::kManual;
  if (threaded) {
    soptions.config.min_threads = threads;
    soptions.config.max_threads = threads;
  }
  service = std::make_unique<core::CopierService>(std::move(soptions));
  glue = std::make_unique<core::CopierLinux>(service.get(), kernel.get());
  if (tracer != nullptr && !threaded) {
    tap = std::make_unique<GlueTap>(glue.get(), tracer);
    tap->Install(kernel.get());
  } else {
    glue->Install();
  }
  if (threaded) {
    service->Start();
  }
}

Stack::~Stack() {
  if (threaded_) {
    service->Stop();
  }
}

AppProcess* Stack::NewApp(copier::apps::Mode mode, const std::string& name) {
  apps.push_back(std::make_unique<AppProcess>(kernel.get(), service.get(), mode, name));
  return apps.back().get();
}

Counters Stack::Snapshot() const {
  Counters c;
  c.engine = service->TotalStats();
  c.fuse = service->ipc_fuse_stats();
  c.sched = service->sched_stats();
  for (const auto& app : apps) {
    c.minor_faults += app->proc()->mem().minor_faults();
    c.cow_faults += app->proc()->mem().cow_faults();
  }
  c.resident_frames = kernel->phys().total_frames() - kernel->phys().free_frames();
  c.skb_acquire_failures = kernel->skb_pool().acquire_failures();
  c.skb_low_watermark = kernel->skb_pool().low_watermark();
  for (size_t i = 0; !threaded_ && i < service->engine_count(); ++i) {
    c.atcache_hits += service->engine(i).atcache().hits();
    c.atcache_misses += service->engine(i).atcache().misses();
  }
  return c;
}

void AddEngineSpans(Tracer* tracer, int32_t service_span, Stack& stack, copier::Cycles before,
                    const core::Engine::Stats& stats_before) {
  const copier::Cycles after = stack.engine_clock()->now();
  const core::Engine::Stats stats = stack.service->TotalStats();
  if (after == before && stats.bytes_copied == stats_before.bytes_copied) {
    return;
  }
  tracer->AddDerived("engine.serve", Layer::kEngine, service_span, before, after);
  const int32_t engine_span = static_cast<int32_t>(tracer->spans().size() - 1);
  const auto& timing = stack.service->timing();
  const uint64_t avx = stats.avx_bytes - stats_before.avx_bytes;
  if (avx > 0) {
    const copier::Cycles cycles = timing.CpuCopyCycles(copier::hw::CopyUnitKind::kAvx, avx);
    tracer->AddDerived("hw.avx_copy", Layer::kHw, engine_span, before,
                       std::min(after, before + cycles));
  }
  const uint64_t dma = stats.dma_bytes_submitted - stats_before.dma_bytes_submitted;
  if (dma > 0) {
    tracer->AddDerived("hw.dma_transfer", Layer::kHw, engine_span, before,
                       before + timing.DmaTransferCycles(dma));
  }
}

uint64_t Fnv(const void* data, size_t n, uint64_t hash) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
