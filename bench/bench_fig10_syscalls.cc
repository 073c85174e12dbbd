// Figure 10: average latency of send() and recv() under the syscall
// optimization baselines vs Copier.
//
// Echo-style load: a peer process keeps the socket fed (recv) or drains it
// (send); the measured side performs the syscall and, for Copier, the csync
// work its successor would do. Expected shape (paper): Copier cuts send
// latency 7–37% (27–59% with batching) and recv latency 16–92% (55–93% with
// batching); UB helps only small sizes; zero-copy send wins only >= 32 KiB.
#include "bench/bench_util.h"

#include "src/baselines/syscall_baselines.h"
#include "src/libcopier/libcopier.h"

namespace copier::bench {
namespace {

constexpr int kIters = 40;

// --- send() ------------------------------------------------------------------

// Baseline/UB/zero-copy/io_uring send: user -> kernel; latency is the
// syscall (or submission+wait) itself.
double SendLatencyUs(const hw::TimingModel& t, size_t size, const std::string& kind) {
  BenchStack stack(&t, {}, kind == "copier" ? apps::Mode::kCopier : apps::Mode::kSync);
  apps::AppProcess* app =
      kind == "copier" ? stack.NewApp("tx") : stack.NewSyncApp("tx");
  auto [sock, peer] = stack.kernel->CreateSocketPair();
  const uint64_t buf = app->Map(size, "buf");
  baselines::ZeroCopySend zerocopy(stack.kernel.get());
  baselines::UserspaceBypass ub(stack.kernel.get());
  baselines::IoUringSim uring(stack.kernel.get(), 1);
  baselines::IoUringSim uring_batch(stack.kernel.get(), 100);

  Histogram lat;
  auto drain = [&] {
    // Peer drains so the skb pool never empties.
    while (peer->HasData()) {
      Cycles dummy = 0;
      peer->ConsumeRx(SIZE_MAX, &dummy, [&](simos::Skb* skb, size_t, size_t) {
        skb->pending_copies.fetch_add(1, std::memory_order_relaxed);
        simos::SimSocket::CompleteCopy(&stack.kernel->skb_pool(), skb);
      });
    }
  };
  (void)drain;

  ExecContext& ctx = app->ctx();
  for (int i = 0; i < kIters; ++i) {
    const Cycles start = ctx.now();
    if (kind == "baseline") {
      COPIER_CHECK(stack.kernel->Send(*app->proc(), sock, buf, size, &ctx).ok());
    } else if (kind == "ub") {
      COPIER_CHECK(ub.Send(*app->proc(), sock, buf, size, &ctx).ok());
    } else if (kind == "zerocopy") {
      COPIER_CHECK(zerocopy.Send(*app->proc(), sock, buf, size, &ctx).ok());
    } else if (kind == "iouring") {
      const uint64_t op = uring.SubmitSend(*app->proc(), sock, buf, size, &ctx);
      COPIER_CHECK(uring.Wait(op, &ctx).ok());
    } else if (kind == "iouring-batch") {
      // Batched: latency per op excludes most of the amortized trap; waits
      // are reaped in bulk (modelled per op here).
      const uint64_t op = uring_batch.SubmitSend(*app->proc(), sock, buf, size, &ctx);
      COPIER_CHECK(uring_batch.Wait(op, &ctx).ok());
    } else if (kind == "copier") {
      // Async send: the syscall returns after submitting k-mode tasks; the
      // driver syncs before NIC enqueue off the critical path (§5.2).
      COPIER_CHECK(stack.kernel->Send(*app->proc(), sock, buf, size, &ctx).ok());
      // Copier serves in background; charge nothing to the app.
      core::Client* client = stack.service->ClientById(app->proc()->copier_client_id());
      stack.service->Serve(*client);
    }
    lat.Add(Us(ctx.now() - start));
    drain();
  }
  return lat.Mean();
}

// --- recv() ------------------------------------------------------------------

double RecvLatencyUs(const hw::TimingModel& t, size_t size, const std::string& kind) {
  BenchStack stack(&t, {}, kind == "copier" ? apps::Mode::kCopier : apps::Mode::kSync);
  apps::AppProcess* app =
      kind == "copier" ? stack.NewApp("rx") : stack.NewSyncApp("rx");
  apps::AppProcess* feeder = stack.NewSyncApp("feeder");
  auto [ftx, sock] = stack.kernel->CreateSocketPair();
  const uint64_t buf = app->Map(AlignUp(size, kPageSize), "buf");
  const uint64_t fbuf = feeder->Map(AlignUp(size, kPageSize), "fbuf");
  core::Descriptor descriptor(AlignUp(size, kPageSize));
  baselines::UserspaceBypass ub(stack.kernel.get());
  baselines::IoUringSim uring(stack.kernel.get(), 1);
  baselines::IoUringSim uring_batch(stack.kernel.get(), 100);

  Histogram lat;
  ExecContext& ctx = app->ctx();
  for (int i = 0; i < kIters; ++i) {
    COPIER_CHECK(stack.kernel->Send(*feeder->proc(), ftx, fbuf, size, nullptr).ok());
    const Cycles start = ctx.now();
    if (kind == "baseline") {
      COPIER_CHECK(stack.kernel->Recv(*app->proc(), sock, buf, size, &ctx).ok());
    } else if (kind == "ub") {
      COPIER_CHECK(ub.Recv(*app->proc(), sock, buf, size, &ctx).ok());
      baselines::UserspaceBypass::ChargeAccessTax(&ctx, size);
    } else if (kind == "iouring") {
      const uint64_t op = uring.SubmitRecv(*app->proc(), sock, buf, size, &ctx);
      COPIER_CHECK(uring.Wait(op, &ctx).ok());
    } else if (kind == "iouring-batch") {
      const uint64_t op = uring_batch.SubmitRecv(*app->proc(), sock, buf, size, &ctx);
      COPIER_CHECK(uring_batch.Wait(op, &ctx).ok());
    } else if (kind == "copier") {
      // Async recv: the syscall returns once tasks are submitted; the app
      // needs only the first bytes (header) before continuing (§5.2) — the
      // latency-relevant csync covers the first segment, as in the paper's
      // echo measurement.
      descriptor.Reset(AlignUp(size, kPageSize));
      simos::RecvOptions opts;
      opts.descriptor = &descriptor;
      COPIER_CHECK(stack.kernel->Recv(*app->proc(), sock, buf, size, &ctx, opts).ok());
      core::Client* client = stack.service->ClientById(app->proc()->copier_client_id());
      stack.service->Serve(*client);
      COPIER_CHECK_OK(core::WaitDescriptor(descriptor, 0, std::min<size_t>(size, 256), &ctx,
                                           [&] { stack.service->Serve(*client); }));
    }
    lat.Add(Us(ctx.now() - start));
    if (kind == "copier") {
      stack.service->DrainAll();  // settle before the buffer is reused
    }
  }
  return lat.Mean();
}

// Submission accounting for one Copier send: queue entries, scatter-gather
// batches, and doorbells (NotifyRunnable calls). Vectored submission
// publishes a 1 MiB send's 256 skbs as 1 entry behind 1 doorbell.
void PrintSubmissionAccounting(const hw::TimingModel& t) {
  PrintBanner("Copier send() submission accounting (per syscall)");
  TextTable table({"size", "entries", "sg batches", "doorbells", "kfuncs"});
  for (size_t size : {64 * kKiB, kMiB}) {
    BenchStack stack(&t);
    apps::AppProcess* app = stack.NewApp("tx");
    auto [sock, peer] = stack.kernel->CreateSocketPair();
    (void)peer;
    const uint64_t buf = app->Map(size, "buf");
    const core::Engine::Stats before = stack.service->TotalStats();
    COPIER_CHECK(stack.kernel->Send(*app->proc(), sock, buf, size, &app->ctx()).ok());
    stack.service->DrainAll();
    const core::Engine::Stats after = stack.service->TotalStats();
    table.AddRow({TextTable::Bytes(size),
                  TextTable::Num(after.submit_entries - before.submit_entries, 0),
                  TextTable::Num(after.submit_batches - before.submit_batches, 0),
                  TextTable::Num(after.notify_calls - before.notify_calls, 0),
                  TextTable::Num(after.kfuncs_run - before.kfuncs_run, 0)});
  }
  table.Print();
}

void Run(const hw::TimingModel& t) {
  const std::vector<size_t> sizes = {1 * kKiB, 4 * kKiB, 16 * kKiB, 64 * kKiB};
  {
    PrintBanner("Figure 10-a: send() average latency (us)");
    TextTable table({"size", "baseline", "UB", "io_uring", "io_uring-batch", "zero-copy",
                     "Copier", "Copier vs base"});
    for (size_t size : sizes) {
      const double base = SendLatencyUs(t, size, "baseline");
      const double copier = SendLatencyUs(t, size, "copier");
      table.AddRow({TextTable::Bytes(size), TextTable::Num(base),
                    TextTable::Num(SendLatencyUs(t, size, "ub")),
                    TextTable::Num(SendLatencyUs(t, size, "iouring")),
                    TextTable::Num(SendLatencyUs(t, size, "iouring-batch")),
                    TextTable::Num(SendLatencyUs(t, size, "zerocopy")),
                    TextTable::Num(copier),
                    "-" + TextTable::Num((1 - copier / base) * 100, 0) + "%"});
    }
    table.Print();
  }
  {
    PrintBanner("Figure 10-b: recv() average latency (us)");
    TextTable table(
        {"size", "baseline", "UB", "io_uring", "io_uring-batch", "Copier", "Copier vs base"});
    for (size_t size : sizes) {
      const double base = RecvLatencyUs(t, size, "baseline");
      const double copier = RecvLatencyUs(t, size, "copier");
      table.AddRow({TextTable::Bytes(size), TextTable::Num(base),
                    TextTable::Num(RecvLatencyUs(t, size, "ub")),
                    TextTable::Num(RecvLatencyUs(t, size, "iouring")),
                    TextTable::Num(RecvLatencyUs(t, size, "iouring-batch")),
                    TextTable::Num(copier),
                    "-" + TextTable::Num((1 - copier / base) * 100, 0) + "%"});
    }
    table.Print();
  }
  PrintSubmissionAccounting(t);
}

}  // namespace
}  // namespace copier::bench

int main(int argc, char** argv) {
  copier::bench::Run(copier::bench::SelectTiming(argc, argv));
  return 0;
}
