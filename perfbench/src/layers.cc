#include "src/layers.h"

#include <map>
#include <numeric>

#include "src/stats.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

std::vector<LayerMetric> LayerMetrics(const PassOutput& pass, const Tracer& tracer) {
  const auto& spans = tracer.spans();
  // Inclusive host ns and virtual cycles per span name.
  std::map<std::string, std::pair<double, double>> by_name;
  for (const Span& s : spans) {
    auto& [host, cycles] = by_name[s.name];
    host += static_cast<double>(s.host_end - s.host_start);
    cycles += static_cast<double>(s.v_end - s.v_start);
  }
  const double ops = static_cast<double>(pass.latency_us.size());
  auto host_per_op = [&](const char* name) { return Ratio(by_name[name].first, ops); };
  auto cycles_per_op = [&](const char* name) { return Ratio(by_name[name].second, ops); };

  const auto& b = pass.begin;
  const auto& e = pass.end;
  auto d = [](uint64_t end, uint64_t begin) { return static_cast<double>(end - begin); };
  const auto& eb = b.engine;
  const auto& ee = e.engine;
  const double tasks = d(ee.tasks_completed, eb.tasks_completed);
  const double ingested = d(ee.tasks_ingested, eb.tasks_ingested);
  const double probes = d(ee.dep_probes, eb.dep_probes);
  const double copied = d(ee.bytes_copied, eb.bytes_copied);
  const double avx = d(ee.avx_bytes, eb.avx_bytes);
  const double dma = d(ee.dma_bytes_completed, eb.dma_bytes_completed);
  const double absorbed = d(ee.bytes_absorbed, eb.bytes_absorbed);
  const double span_cycles = UsToCycles(pass.span_us);
  const double hits = d(e.atcache_hits, b.atcache_hits);
  const double misses = d(e.atcache_misses, b.atcache_misses);
  const double fwd = d(e.fuse.forward_fused, b.fuse.forward_fused);
  const double fused = d(e.fuse.fused, b.fuse.fused) + fwd;
  const double fallbacks = d(e.fuse.fallbacks(), b.fuse.fallbacks());
  const double picks = d(e.sched.picks, b.sched.picks);

  std::vector<LayerMetric> m = {
      // apps
      {"apps.kv_process.host_ns", "ns", host_per_op("apps.kv_process")},
      {"apps.kv_process.cycles", "cycles", cycles_per_op("apps.kv_process")},
      {"apps.proxy_forward.host_ns", "ns", host_per_op("apps.proxy_forward")},
      {"apps.proxy_forward.cycles", "cycles", cycles_per_op("apps.proxy_forward")},
      {"apps.server_lag.cycles", "cycles",
       Ratio(std::accumulate(pass.lag_cycles.begin(), pass.lag_cycles.end(), 0.0), ops)},
      // simos
      {"simos.send.host_ns", "ns", host_per_op("simos.send")},
      {"simos.send.cycles", "cycles", cycles_per_op("simos.send")},
      {"simos.recv.host_ns", "ns", host_per_op("simos.recv")},
      {"simos.recv.cycles", "cycles", cycles_per_op("simos.recv")},
      {"simos.recv.retry_frac", "ratio",
       Ratio(tracer.counter("simos.recv.retries"), tracer.counter("simos.recv.calls"))},
      {"simos.post_recv.host_ns", "ns", host_per_op("simos.post_recv")},
      {"simos.binder_post.host_ns", "ns", host_per_op("simos.binder_post")},
      {"simos.minor_faults_per_op", "count", Ratio(d(e.minor_faults, b.minor_faults), ops)},
      {"simos.cow_faults", "count", d(e.cow_faults, b.cow_faults)},
      {"simos.resident_mb", "MiB", static_cast<double>(e.resident_frames) * 4096 / (1 << 20)},
      {"simos.skb_acquire_failures", "count",
       d(e.skb_acquire_failures, b.skb_acquire_failures)},
      {"simos.skb_low_watermark", "count", static_cast<double>(e.skb_low_watermark)},
      // linux_glue
      {"linux_glue.copy.host_ns", "ns", host_per_op("linux_glue.copy")},
      {"linux_glue.copyv.host_ns", "ns", host_per_op("linux_glue.copyv")},
      {"linux_glue.copy_fused.host_ns", "ns", host_per_op("linux_glue.copy_fused")},
      {"linux_glue.sync_kernel.host_ns", "ns", host_per_op("linux_glue.sync_kernel")},
      {"linux_glue.fused_rate", "ratio", Ratio(fused, fused + fallbacks)},
      {"linux_glue.fuse_fallbacks", "count", fallbacks},
      {"linux_glue.forward_fused_frac", "ratio", Ratio(fwd, ops)},
      {"linux_glue.ring_rollovers", "count", d(e.fuse.ring_rollovers, b.fuse.ring_rollovers)},
      {"linux_glue.submit_entries_per_op", "count",
       Ratio(d(ee.submit_entries, eb.submit_entries), ops)},
      {"linux_glue.notify_per_op", "count", Ratio(d(ee.notify_calls, eb.notify_calls), ops)},
      // libcopier
      {"libcopier.submit.host_ns", "ns", host_per_op("libcopier.submit")},
      {"libcopier.submit.cycles", "cycles", cycles_per_op("libcopier.submit")},
      {"libcopier.csync.host_ns", "ns", host_per_op("libcopier.csync")},
      {"libcopier.csync.wait_cycles", "cycles", cycles_per_op("libcopier.csync")},
      {"libcopier.sync_fallback_frac", "ratio",
       Ratio(tracer.counter("libcopier.sync_fallbacks"), tracer.counter("libcopier.submits"))},
      {"libcopier.post_handlers.host_ns", "ns", host_per_op("libcopier.post_handlers")},
      // service
      {"service.serve.host_ns", "ns", host_per_op("service.serve")},
      {"service.serve.calls_per_op", "count", Ratio(tracer.counter("service.serve.calls"), ops)},
      {"service.serve.idle_frac", "ratio",
       Ratio(tracer.counter("service.serve.idle"), tracer.counter("service.serve.calls"))},
      {"service.drain.host_ns", "ns", Ratio(tracer.counter("service.drain.ns"), ops)},
      {"service.admit.host_ns", "ns", host_per_op("service.admit")},
      // engine
      {"engine.busy_frac", "ratio", Ratio(d(ee.serve_cycles, eb.serve_cycles), span_cycles)},
      {"engine.cycles_per_task", "cycles", Ratio(d(ee.serve_cycles, eb.serve_cycles), tasks)},
      {"engine.tasks_per_op", "count", Ratio(tasks, ops)},
      {"engine.kfuncs_per_op", "count", Ratio(d(ee.kfuncs_run, eb.kfuncs_run), ops)},
      {"engine.copy_window_p50_us", "us", Percentile(pass.copy_window_us, 50)},
      {"engine.copy_window_p99_us", "us", Percentile(pass.copy_window_us, 99)},
      {"engine.dep_probes_per_task", "count", Ratio(probes, ingested)},
      {"engine.dep_scanned_per_probe", "count",
       Ratio(d(ee.dep_tasks_scanned, eb.dep_tasks_scanned), probes)},
      {"engine.absorbed_frac", "ratio", Ratio(absorbed, copied + absorbed)},
      {"engine.sync_promotions", "count", d(ee.sync_promotions, eb.sync_promotions)},
      {"engine.tasks_aborted", "count", d(ee.tasks_aborted, eb.tasks_aborted)},
      {"engine.tasks_dropped", "count", d(ee.tasks_dropped, eb.tasks_dropped)},
      {"engine.moved_per_payload_byte", "ratio",
       Ratio(avx + dma, static_cast<double>(pass.payload_bytes))},
      {"engine.remapped_frac", "ratio", Ratio(d(ee.remapped_bytes, eb.remapped_bytes), copied)},
      {"engine.remap_cow_breaks", "count", d(ee.remap_cow_breaks, eb.remap_cow_breaks)},
      {"engine.atcache_hit_frac", "ratio", Ratio(hits, hits + misses)},
      {"engine.cross_dep_settles", "count", d(ee.cross_dep_settles, eb.cross_dep_settles)},
      // hw
      {"hw.avx_bytes_per_op", "B", Ratio(avx, ops)},
      {"hw.dma_bytes_frac", "ratio", Ratio(dma, avx + dma)},
      {"hw.dma_batches_per_op", "count",
       Ratio(d(ee.dma_batches_submitted, eb.dma_batches_submitted), ops)},
      {"hw.dma_stall_cycles", "cycles", d(ee.dma_stall_cycles, eb.dma_stall_cycles)},
      {"hw.dma_drain_wait_cycles", "cycles", d(ee.dma_drain_wait_cycles, eb.dma_drain_wait_cycles)},
      {"hw.dma_rounds_parked", "count", d(ee.dma_rounds_parked, eb.dma_rounds_parked)},
      {"hw.dma_ring_full_fallbacks", "count",
       d(ee.dma_ring_full_fallbacks, eb.dma_ring_full_fallbacks)},
      // sched (threaded mode only)
      {"sched.pick_tsc_per_pick", "cycles",
       Ratio(d(e.sched.pick_tsc_cycles, b.sched.pick_tsc_cycles), picks)},
      {"sched.pick_hit_frac", "ratio", Ratio(picks, d(e.sched.pick_calls, b.sched.pick_calls))},
      {"sched.steals", "count", d(e.sched.steals, b.sched.steals)},
      {"sched.targeted_wakeups", "count", d(e.sched.targeted_wakeups, b.sched.targeted_wakeups)},
      {"sched.broadcast_wakeups", "count",
       d(e.sched.broadcast_wakeups, b.sched.broadcast_wakeups)},
      {"sched.reconcile_marks", "count", d(e.sched.reconcile_marks, b.sched.reconcile_marks)},
      {"sched.dma_reap_requeues", "count",
       d(e.sched.dma_reap_requeues, b.sched.dma_reap_requeues)},
  };

  // Self time per layer and request; medians over requests.
  const std::vector<RequestBreakdown> requests = BreakDown(spans);
  double latency = 0;
  double covered = 0;
  for (const RequestBreakdown& r : requests) {
    latency += static_cast<double>(r.latency_cycles);
    covered += static_cast<double>(r.covered_cycles);
  }
  for (size_t layer = 1; layer < kLayerCount; ++layer) {
    if (static_cast<Layer>(layer) == Layer::kSched) {
      continue;  // no public interposition point: counters only
    }
    std::vector<double> host;
    std::vector<double> cycles;
    for (const RequestBreakdown& r : requests) {
      host.push_back(static_cast<double>(r.self_host_ns[layer]));
      cycles.push_back(static_cast<double>(r.self_cycles[layer]));
    }
    const std::string prefix = std::string("self.") + LayerName(static_cast<Layer>(layer));
    m.push_back({prefix + ".host_ns_p50", "ns", Median(host)});
    m.push_back({prefix + ".cycles_p50", "cycles", Median(cycles)});
  }
  m.push_back({"trace.covered_frac", "ratio", Ratio(covered, latency)});
  m.push_back({"trace.unattributed_frac", "ratio", latency == 0 ? 0 : 1 - covered / latency});
  return m;
}

}  // namespace perfbench
