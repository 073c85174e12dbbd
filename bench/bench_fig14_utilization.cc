// Figure 14: whole-system resource utilization — Redis instances on a
// 4-core budget. With Copier, one core is dedicated to the service, so at
// most 3 instances run concurrently; when all cores are busy Copier still
// cuts request latency but total throughput dips a few percent (§6.3.4).
//
// Method: per-request app-core busy time and engine busy time are measured
// from one-instance virtual-time runs (the same machinery as Fig. 11), then
// composed over the core budget.
#include "bench/bench_util.h"

#include <cstdio>
#include <memory>
#include <vector>

#include "src/apps/minikv.h"
#include "src/apps/miniproxy.h"
#include "src/libcopier/libcopier.h"
#include "src/simos/binder.h"

namespace copier::bench {
namespace {

struct PerRequest {
  double app_core_us = 0;     // busy time on the instance's core per request
  double engine_us = 0;       // Copier-core busy time per request
  double latency_us = 0;      // end-to-end (includes engine, §6.3.4)
};

PerRequest Measure(const hw::TimingModel& t, size_t vlen, apps::Mode mode) {
  BenchStack stack(&t, {}, mode);
  apps::AppProcess* server = stack.NewApp("kv");
  apps::AppProcess* client = stack.NewSyncApp("client");
  apps::MiniKv kv(server);
  auto [c, s] = stack.kernel->CreateSocketPair();
  const uint64_t cbuf = client->Map(vlen + 64 * kKiB, "cbuf");
  const std::vector<uint8_t> value(vlen, 0x31);

  constexpr int kOps = 12;
  const Cycles server_start = server->ctx().now();
  const Cycles engine_start = stack.service->engine_ctx().now();
  const Cycles engine_blocked_start = stack.service->engine_ctx().blocked_cycles();
  Histogram lat;
  for (int i = 0; i < kOps; ++i) {
    client->ctx().WaitUntil(server->ctx().now());
    const Cycles t0 = client->ctx().now();
    const auto req = apps::MiniKv::BuildSet("k", value);
    client->io().Write(cbuf, req.data(), req.size(), &client->ctx());
    COPIER_CHECK(stack.kernel->Send(*client->proc(), c, cbuf, req.size(), &client->ctx()).ok());
    server->ctx().WaitUntil(client->ctx().now());
    COPIER_CHECK(kv.ProcessOne(s, &server->ctx()).ok());
    if (mode == apps::Mode::kCopier) {
      core::Client* cl = stack.service->ClientById(server->proc()->copier_client_id());
      stack.service->Serve(*cl);
    }
    auto reply = stack.kernel->Recv(*client->proc(), c, cbuf, 5, &client->ctx());
    while (!reply.ok() && mode == apps::Mode::kCopier) {
      core::Client* cl = stack.service->ClientById(server->proc()->copier_client_id());
      stack.service->Serve(*cl);
      reply = stack.kernel->Recv(*client->proc(), c, cbuf, 5, &client->ctx());
    }
    COPIER_CHECK(reply.ok());
    lat.Add(Us(client->ctx().now() - t0));
  }
  stack.service->DrainAll();

  PerRequest result;
  result.app_core_us = Us(server->ctx().now() - server_start) / kOps;
  // Engine *busy* time: clock delta minus idle waits for submissions.
  const Cycles engine_idle =
      stack.service->engine_ctx().blocked_cycles() - engine_blocked_start;
  result.engine_us = Us(stack.service->engine_ctx().now() - engine_start - engine_idle) / kOps;
  result.latency_us = lat.Mean();
  return result;
}

void Run(const hw::TimingModel& t) {
  PrintBanner("Figure 14: Redis SET on a 4-core budget (1 dedicated Copier core)");
  for (size_t vlen : {size_t{8 * kKiB}, size_t{16 * kKiB}}) {
    const PerRequest sync = Measure(t, vlen, apps::Mode::kSync);
    const PerRequest copier = Measure(t, vlen, apps::Mode::kCopier);
    std::printf("\n-- value %s --\n", TextTable::Bytes(vlen).c_str());
    TextTable table({"Redis instances", "BL kops", "Copier kops", "tput delta", "BL lat us",
                     "Copier lat us", "lat delta"});
    for (int n = 1; n <= 4; ++n) {
      // Baseline: n instances over 4 cores (each instance is one process).
      const double bl_kops = std::min(n, 4) / sync.app_core_us * 1e3;
      // Copier: one core dedicated to the service; at most 3 instance cores.
      const int app_cores = std::min(n, 3);
      const double engine_cap = 1.0 / copier.engine_us * 1e3;  // requests/ms the core sustains
      const double copier_kops =
          std::min(app_cores / copier.app_core_us * 1e3, engine_cap);
      table.AddRow({std::to_string(n), TextTable::Num(bl_kops), TextTable::Num(copier_kops),
                    TextTable::Num((copier_kops / bl_kops - 1) * 100, 1) + "%",
                    TextTable::Num(sync.latency_us), TextTable::Num(copier.latency_us),
                    TextTable::Num((1 - copier.latency_us / sync.latency_us) * 100, 1) + "%"});
    }
    table.Print();
  }
}

// Real-threaded utilization: drive a 4-thread service with value-sized copy
// waves and report the aggregated engine counters (TotalStats sums every
// engine's relaxed-atomic stats — safe to read while threads run) plus the
// scheduler's own utilization signature (pick hit rate, steals, wakeups).
void RunThreadedUtilization() {
  PrintBanner("Figure 14 (threaded): Copier-thread utilization counters, 4 threads");
  constexpr size_t kThreads = 4;
  constexpr size_t kInstances = 3;  // the 4-core budget's app cores
  constexpr size_t kSlots = 64;
  constexpr size_t kSlotBytes = 64 * kKiB;  // large SET value: big enough to offload
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = kThreads;
  options.config.max_threads = kThreads;
  core::CopierService service(std::move(options));

  struct Instance {
    simos::Process* proc = nullptr;
    core::Client* client = nullptr;
    std::unique_ptr<lib::CopierLib> lib;
    uint64_t arena = 0;
  };
  std::vector<Instance> instances(kInstances);
  for (auto& inst : instances) {
    inst.proc = kernel.CreateProcess("kv");
    inst.client = service.AttachProcess(inst.proc);
    inst.lib = std::make_unique<lib::CopierLib>(inst.client, &service);
    auto va = inst.proc->mem().MapAnonymous((kSlots + 1) * kSlotBytes, "values", true);
    COPIER_CHECK(va.ok());
    inst.arena = *va;
  }
  service.Start();
  for (auto& inst : instances) {
    for (size_t i = 0; i < kSlots; ++i) {
      inst.lib->amemcpy(inst.arena + (i + 1) * kSlotBytes, inst.arena, kSlotBytes);
    }
  }
  // Mid-run sample, threads still serving: submitted − completed is the DMA
  // work genuinely in flight while rounds are parked (DESIGN.md §9).
  const core::Engine::Stats mid = service.TotalStats();
  const uint64_t inflight_sample =
      mid.dma_bytes_submitted > mid.dma_bytes_completed
          ? mid.dma_bytes_submitted - mid.dma_bytes_completed
          : 0;
  for (auto& inst : instances) {
    COPIER_CHECK_OK(inst.lib->csync_all());
  }
  const core::Engine::Stats totals = service.TotalStats();
  const core::CopierService::SchedStats sched = service.sched_stats();
  service.Stop();

  // "bytes copied" is progress the clients observed; "moved" is what the
  // engines physically shipped (AVX + DMA).
  uint64_t cow_faults = 0;
  for (const auto& inst : instances) {
    cow_faults += inst.proc->mem().cow_faults();
  }
  TextTable engine_table({"tasks done", "bytes copied", "moved", "absorbed",
                          "promotions", "cow faults"});
  engine_table.AddRow({TextTable::Num(totals.tasks_completed, 0),
                       TextTable::Bytes(totals.bytes_copied),
                       TextTable::Bytes(totals.avx_bytes + totals.dma_bytes_completed),
                       TextTable::Bytes(totals.bytes_absorbed),
                       TextTable::Num(totals.sync_promotions, 0),
                       TextTable::Num(cow_faults, 0)});
  engine_table.Print();
  TextTable dma_table({"DMA submitted", "DMA completed", "in-flight sample", "parked rounds",
                       "stall cyc", "drain cyc", "reap re-queues"});
  dma_table.AddRow({TextTable::Bytes(totals.dma_bytes_submitted),
                    TextTable::Bytes(totals.dma_bytes_completed),
                    TextTable::Bytes(inflight_sample),
                    TextTable::Num(totals.dma_rounds_parked, 0),
                    TextTable::Num(totals.dma_stall_cycles, 0),
                    TextTable::Num(totals.dma_drain_wait_cycles, 0),
                    TextTable::Num(sched.dma_reap_requeues, 0)});
  dma_table.Print();
  TextTable sched_table({"pick calls", "picks", "hit rate", "steals", "targeted wakes",
                         "broadcast wakes"});
  sched_table.AddRow(
      {TextTable::Num(sched.pick_calls, 0), TextTable::Num(sched.picks, 0),
       TextTable::Num(100.0 * sched.picks /
                          std::max<uint64_t>(1, sched.pick_calls), 1) + "%",
       TextTable::Num(sched.steals, 0), TextTable::Num(sched.targeted_wakeups, 0),
       TextTable::Num(sched.broadcast_wakeups, 0)});
  sched_table.Print();
  // Per-engine utilization (DESIGN.md §10): how evenly the pool shared the
  // load — serving cycles, tasks, cross-engine steals and shared-range
  // dependency traffic, per engine.
  TextTable engine_util_table({"engine", "serve cyc", "tasks", "bytes", "steals in",
                               "steals out", "x-probes", "x-settles", "x-defers"});
  for (size_t e = 0; e < service.engine_count(); ++e) {
    const core::CopierService::EngineUtil util = service.engine_util(e);
    engine_util_table.AddRow(
        {std::to_string(e), TextTable::Num(util.stats.serve_cycles, 0),
         TextTable::Num(util.stats.tasks_completed, 0), TextTable::Bytes(util.stats.bytes_copied),
         TextTable::Num(util.steals_in, 0), TextTable::Num(util.steals_out, 0),
         TextTable::Num(util.stats.cross_dep_probes, 0),
         TextTable::Num(util.stats.cross_dep_settles, 0),
         TextTable::Num(util.stats.cross_dep_defers, 0)});
  }
  engine_util_table.Print();
  std::printf("(low hit rate = threads polling idle shards; the figure's dedicated core "
              "is busy only while clients submit)\n");
}

// Fused-IPC utilization: exercise every reachable rung of the fallback
// ladder (DESIGN.md §12) in one virtual-time run, then print the full
// IpcFuseStats counter group — the "where did my sends go" companion to the
// engine/scheduler tables above. Pool-exhausted and submission-ring
// fallbacks stay 0 in a healthy run and print as such.
void RunIpcFuseLadder(const hw::TimingModel& t) {
  PrintBanner("Fused IPC fallback ladder: posted-send accounting (1 Copier core)");
  BenchStack stack(&t);
  apps::AppProcess* tx = stack.NewApp("ladder-tx");
  apps::AppProcess* rx = stack.NewApp("ladder-rx");
  auto [ts, rs] = stack.kernel->CreateSocketPair();

  constexpr size_t kMsg = 16 * kKiB;
  const uint64_t src = tx->Map(2 * kMsg, "ladder-src", true);
  const uint64_t win = rx->Map(2 * kMsg, "ladder-win", true);
  std::vector<uint8_t> payload(2 * kMsg, 0x5a);
  COPIER_CHECK_OK(tx->proc()->mem().WriteBytes(src, payload.data(), payload.size()));

  auto send = [&](size_t length) {
    size_t sent_total = 0;
    while (sent_total < length) {
      auto sent =
          stack.kernel->Send(*tx->proc(), ts, src + sent_total, length - sent_total, &tx->ctx());
      COPIER_CHECK(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
  };
  auto reap = [&](core::Descriptor* descriptor, size_t length) {
    COPIER_CHECK_OK(core::WaitDescriptor(*descriptor, 0, length, &rx->ctx(),
                                         [&] { stack.service->DrainAll(); }));
    auto filled = stack.kernel->CompleteRecv(*rx->proc(), rs, &rx->ctx());
    COPIER_CHECK(filled.ok()) << filled.status().ToString();
  };
  auto recv_classic = [&](size_t length) {
    auto got = stack.kernel->Recv(*rx->proc(), rs, win, length, &rx->ctx());
    while (!got.ok()) {
      stack.service->DrainAll();
      got = stack.kernel->Recv(*rx->proc(), rs, win, length, &rx->ctx());
    }
  };

  // (1) No window posted: classic two-step, kFallbackNotPosted.
  send(kMsg);
  recv_classic(kMsg);
  // (2) Single posted window: the fused fast path.
  {
    core::Descriptor d(kMsg);
    simos::RecvOptions ropts;
    ropts.descriptor = &d;
    COPIER_CHECK(stack.kernel->PostRecv(*rx->proc(), rs, win, kMsg, &rx->ctx(), ropts).ok());
    send(kMsg);
    reap(&d, kMsg);
  }
  // (3) Receive ring at depth 2, plus one send spanning both windows — the
  // spill into the second window is a ring rollover, still fused.
  {
    core::Descriptor d1(kMsg);
    core::Descriptor d2(kMsg);
    const std::vector<simos::SimKernel::RecvWindowSpec> specs = {
        {win, kMsg, &d1}, {win + kMsg, kMsg, &d2}};
    COPIER_CHECK(stack.kernel->PostRecvRing(*rx->proc(), rs, specs, &rx->ctx()).ok());
    send(2 * kMsg);
    reap(&d1, kMsg);
    reap(&d2, kMsg);
  }
  // (4) Ring exhausted mid-stream: one window, two messages — the second
  // finds every window consumed and falls back, kFallbackWindowFull.
  {
    core::Descriptor d(kMsg);
    simos::RecvOptions ropts;
    ropts.descriptor = &d;
    COPIER_CHECK(stack.kernel->PostRecv(*rx->proc(), rs, win, kMsg, &rx->ctx(), ropts).ok());
    send(kMsg);
    send(kMsg);
    reap(&d, kMsg);
    recv_classic(kMsg);
  }

  // (5) Proxy-transparent forwarding: a complete FWD frame on a
  // forward-posted window dispatches straight to the KV parcel window
  // (kForwardFused); a split frame makes the rule decline (kFallbackForward)
  // and the message lands app-level in the proxy window instead.
  apps::AppProcess* kv = stack.NewApp("ladder-kv");
  simos::BinderDriver binder(stack.kernel.get());
  std::vector<uint8_t> body(kMsg);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>(i * 61 + 7);
  }
  const std::vector<uint8_t> fwd_msg = apps::MiniProxy::BuildMessage(1, body);
  const size_t n = fwd_msg.size();
  char via[64];
  const int via_len = std::snprintf(via, sizeof(via), "VIA %d %zu\r\n", 1, body.size());
  const size_t parcel_len = 4 + static_cast<size_t>(via_len) + body.size();
  const uint64_t fsrc = tx->Map(n, "fwd-src", true);
  const uint64_t pwin = rx->Map(n, "fwd-pwin", true);
  const uint64_t kv_win = kv->Map(parcel_len, "fwd-kv-win", true);
  COPIER_CHECK_OK(tx->proc()->mem().WriteBytes(fsrc, fwd_msg.data(), n));
  rs->SetForwardRule(apps::MiniProxy::MakeParcelForwardRule(&binder));
  for (const bool split : {false, true}) {
    core::Descriptor d1(n);
    core::Descriptor d2(parcel_len);
    simos::RecvOptions ropts;
    ropts.descriptor = &d1;
    if (!split) {
      COPIER_CHECK_OK(binder.PostReceive(*kv->proc(), kv_win, parcel_len, &d2, &kv->ctx()));
    }
    COPIER_CHECK(stack.kernel->PostRecv(*rx->proc(), rs, pwin, n, &rx->ctx(), ropts).ok());
    if (split) {
      const size_t half = n / 2;
      auto first = stack.kernel->Send(*tx->proc(), ts, fsrc, half, &tx->ctx());
      COPIER_CHECK(first.ok() && *first == half);
      auto rest = stack.kernel->Send(*tx->proc(), ts, fsrc + half, n - half, &tx->ctx());
      COPIER_CHECK(rest.ok() && *rest == n - half);
      stack.service->DrainAll();
    } else {
      auto sent = stack.kernel->Send(*tx->proc(), ts, fsrc, n, &tx->ctx());
      COPIER_CHECK(sent.ok() && *sent == n);
      stack.service->DrainAll();
    }
    COPIER_CHECK_OK(
        core::WaitDescriptor(d1, 0, n, &rx->ctx(), [&] { stack.service->DrainAll(); }));
    auto reaped = stack.kernel->CompleteRecv(*rx->proc(), rs, &rx->ctx());
    COPIER_CHECK(reaped.ok() && *reaped == n);
    if (!split) {
      COPIER_CHECK_OK(core::WaitDescriptor(d2, 0, parcel_len, &kv->ctx(),
                                           [&] { stack.service->DrainAll(); }));
    }
  }
  rs->SetForwardRule(nullptr);

  const core::CopierService::IpcFuseStats fuse = stack.service->ipc_fuse_stats();
  TextTable table({"fused", "fwd fused", "not posted", "win full", "pool", "subm ring",
                   "fwd declined", "ring posts", "rollovers", "fused rate"});
  table.AddRow({TextTable::Num(fuse.fused, 0), TextTable::Num(fuse.forward_fused, 0),
                TextTable::Num(fuse.fallback_not_posted, 0),
                TextTable::Num(fuse.fallback_window_full, 0),
                TextTable::Num(fuse.fallback_pool_exhausted, 0),
                TextTable::Num(fuse.fallback_ring, 0),
                TextTable::Num(fuse.fallback_forward, 0),
                TextTable::Num(fuse.ring_windows_posted, 0),
                TextTable::Num(fuse.ring_rollovers, 0),
                TextTable::Num(100.0 * fuse.fused_rate(), 1) + "%"});
  table.Print();
  const bool ladder_ok = fuse.fused > 0 && fuse.forward_fused > 0 &&
                         fuse.fallback_not_posted > 0 && fuse.fallback_window_full > 0 &&
                         fuse.fallback_forward > 0 && fuse.ring_windows_posted >= 1 &&
                         fuse.ring_rollovers > 0;
  if (!ladder_ok) {
    std::fprintf(stderr, "MISMATCH: fuse ladder rung unexpectedly empty\n");
  }
  std::printf("(every rung driven on purpose: classic, fused, ring+rollover, full-ring "
              "fallback, forward fused, declined forward) %s\n", ladder_ok ? "OK" : " NO ");
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv));
  copier::bench::RunIpcFuseLadder(copier::bench::SelectTiming(argc, argv));
  copier::bench::RunThreadedUtilization();
  return 0;
}
