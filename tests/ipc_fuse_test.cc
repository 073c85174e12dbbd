// Fused IPC fast path (DESIGN.md §12): posted-receive transfers must be
// byte-identical — with identical KFUNC order — whether they take the fused
// single-hop task or the two-step staged path (enable_ipc_fuse ablation),
// and every rung of the fallback ladder must degrade losslessly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/apps/miniproxy.h"
#include "src/apps/parcel.h"
#include "src/simos/binder.h"
#include "tests/test_util.h"

namespace copier::test {
namespace {

// --- socket differential -----------------------------------------------------

struct PostedRunResult {
  std::vector<uint8_t> image;
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;  // skb ids in KFUNC firing order
  uint64_t fused_ipc_tasks = 0;
  uint64_t fused_ipc_bytes = 0;
  core::CopierService::IpcFuseStats fuse = {};
};

PostedRunResult RunPostedSocketWorkload(bool fuse, size_t n) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 7001 + n);
  auto dst_or = peer->mem().MapAnonymous(n, "win", true);
  EXPECT_TRUE(dst_or.ok());

  PostedRunResult result;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { result.probe.push_back(id); });

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  auto staged = stack.kernel->PostRecv(*peer, rx, *dst_or, n, nullptr, ropts);
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(*staged, 0u);  // nothing queued yet

  size_t sent_total = 0;
  for (int iter = 0; iter < 1000 && sent_total < n; ++iter) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total, nullptr);
    EXPECT_TRUE(sent.ok()) << sent.status().ToString();
    if (!sent.ok()) {
      break;
    }
    sent_total += *sent;
    stack.service->DrainAll();
  }
  EXPECT_EQ(sent_total, n);
  EXPECT_TRUE(
      core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
          .ok());
  auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  EXPECT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);

  result.image = ReadAll(peer->mem(), *dst_or, n);
  const core::Engine::Stats stats = stack.service->TotalStats();
  result.kfuncs_run = stats.kfuncs_run;
  result.fused_ipc_tasks = stats.fused_ipc_tasks;
  result.fused_ipc_bytes = stats.fused_ipc_bytes;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

class PostedSocketDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(PostedSocketDifferential, FusedMatchesTwoStep) {
  const size_t n = GetParam();
  const PostedRunResult fused = RunPostedSocketWorkload(/*fuse=*/true, n);
  const PostedRunResult two_step = RunPostedSocketWorkload(/*fuse=*/false, n);

  // Byte identity: the modes differ in how many times the bytes move, never
  // in what lands in the window.
  ASSERT_EQ(fused.image.size(), two_step.image.size());
  EXPECT_EQ(fused.image, two_step.image);

  // KFUNC parity: the fused task's per-chunk reclaim handlers replace the
  // drain's per-skb handlers one for one, in the same order.
  EXPECT_EQ(fused.kfuncs_run, two_step.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 0u);
  EXPECT_EQ(fused.probe, two_step.probe);

  // fused_ipc_bytes is exact: every payload byte went through a fused task in
  // fuse mode, none in the ablation.
  EXPECT_EQ(fused.fused_ipc_bytes, n);
  EXPECT_GE(fused.fused_ipc_tasks, 1u);
  EXPECT_GE(fused.fuse.fused, 1u);
  EXPECT_EQ(fused.fuse.fallbacks(), 0u);
  EXPECT_EQ(two_step.fused_ipc_bytes, 0u);
  EXPECT_EQ(two_step.fused_ipc_tasks, 0u);
  EXPECT_EQ(two_step.fuse.fused, 0u);
  EXPECT_EQ(two_step.fuse.fallbacks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PostedSocketDifferential,
                         ::testing::Values(4 * kKiB, 40 * kKiB + 123, 1 * kMiB));

// --- binder differential -----------------------------------------------------

struct BinderRunResult {
  std::vector<uint8_t> image;
  uint64_t kfuncs_run = 0;
  uint64_t fused_ipc_bytes = 0;
  core::CopierService::IpcFuseStats fuse = {};
};

BinderRunResult RunPostedBinderWorkload(bool fuse, size_t n) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* server = stack.kernel->CreateProcess("server");
  stack.service->AttachProcess(server);
  simos::BinderDriver binder(stack.kernel.get());

  const uint64_t msg = stack.Map(n, "msg");
  FillPattern(stack.proc->mem(), msg, n, 41);
  auto win_or = server->mem().MapAnonymous(n, "win", true);
  EXPECT_TRUE(win_or.ok());

  core::Descriptor descriptor(n);
  EXPECT_TRUE(binder.PostReceive(*server, *win_or, n, &descriptor, nullptr).ok());
  auto txn = binder.Transact(*stack.proc, msg, n, nullptr);
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_TRUE(txn->in_window);
  EXPECT_EQ(txn->window_va, *win_or);
  EXPECT_TRUE(
      core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
          .ok());
  binder.Release(txn->id);

  BinderRunResult result;
  result.image = ReadAll(server->mem(), *win_or, n);
  const core::Engine::Stats stats = stack.service->TotalStats();
  result.kfuncs_run = stats.kfuncs_run;
  result.fused_ipc_bytes = stats.fused_ipc_bytes;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(BinderPostedDifferential, FusedMatchesTwoStep) {
  const size_t n = 192 * kKiB + 257;
  const BinderRunResult fused = RunPostedBinderWorkload(/*fuse=*/true, n);
  const BinderRunResult two_step = RunPostedBinderWorkload(/*fuse=*/false, n);

  EXPECT_EQ(fused.image, two_step.image);
  // Both posted paths fire exactly one buffer-reclaim KFUNC.
  EXPECT_EQ(fused.kfuncs_run, 1u);
  EXPECT_EQ(two_step.kfuncs_run, 1u);
  EXPECT_EQ(fused.fused_ipc_bytes, n);
  EXPECT_EQ(fused.fuse.fused, 1u);
  EXPECT_EQ(two_step.fused_ipc_bytes, 0u);
  EXPECT_EQ(two_step.fuse.fused + two_step.fuse.fallbacks(), 0u);
}

TEST(BinderPosted, TooSmallWindowFallsBackAndStaysPosted) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* server = stack.kernel->CreateProcess("server");
  stack.service->AttachProcess(server);
  simos::BinderDriver binder(stack.kernel.get());

  const size_t n = 8 * kKiB;
  const uint64_t msg = stack.Map(n, "msg");
  FillPattern(stack.proc->mem(), msg, n, 5);
  auto win_or = server->mem().MapAnonymous(kPageSize, "win", true);
  ASSERT_TRUE(win_or.ok());
  ASSERT_TRUE(binder.PostReceive(*server, *win_or, kPageSize, nullptr, nullptr).ok());

  // Payload exceeds the window: classic buffer bounce, window left posted.
  auto txn = binder.Transact(*stack.proc, msg, n, nullptr);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_FALSE(txn->in_window);
  stack.service->DrainAll();
  EXPECT_EQ(std::vector<uint8_t>(txn->data, txn->data + n), ReadAll(stack.proc->mem(), msg, n));
  binder.Release(txn->id);
  EXPECT_EQ(stack.service->ipc_fuse_stats().fallback_window_full, 1u);

  // A fitting transaction still takes the posted path.
  auto txn2 = binder.Transact(*stack.proc, msg, kPageSize, nullptr);
  ASSERT_TRUE(txn2.ok());
  EXPECT_TRUE(txn2->in_window);
  stack.service->DrainAll();
  EXPECT_EQ(ReadAll(server->mem(), *win_or, kPageSize),
            ReadAll(stack.proc->mem(), msg, kPageSize));
  binder.Release(txn2->id);
}

// --- fallback ladder edges ---------------------------------------------------

// Receiver posts its window mid-stream: bytes sent before the post are staged
// into the window ahead of the fused bytes, preserving stream order.
TEST(IpcFuseFallback, ReceiverPostsMidStream) {
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    auto [tx, rx] = stack.kernel->CreateSocketPair();

    const size_t first = 24 * kKiB + 100;
    const size_t second = 32 * kKiB + 11;
    const size_t n = first + second;
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, 99);
    auto win_or = peer->mem().MapAnonymous(n, "win", true);
    ASSERT_TRUE(win_or.ok());

    // Classic send (no window posted yet), delivered before the post.
    auto s1 = stack.kernel->Send(*stack.proc, tx, src, first, nullptr);
    ASSERT_TRUE(s1.ok());
    ASSERT_EQ(*s1, first);
    stack.service->DrainAll();

    // The post stages the queued bytes into the window front.
    core::Descriptor descriptor(n);
    simos::RecvOptions ropts;
    ropts.descriptor = &descriptor;
    auto staged = stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, ropts);
    ASSERT_TRUE(staged.ok()) << staged.status().ToString();
    EXPECT_EQ(*staged, first);

    // The rest goes fused (or posted two-step in the ablation), behind it.
    auto s2 = stack.kernel->Send(*stack.proc, tx, src + first, second, nullptr);
    ASSERT_TRUE(s2.ok());
    ASSERT_EQ(*s2, second);
    ASSERT_TRUE(
        core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
            .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, n);
    EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
    if (fuse) {
      const auto fuse_stats = stack.service->ipc_fuse_stats();
      EXPECT_EQ(fuse_stats.fused, 1u);
      EXPECT_EQ(fuse_stats.fallback_not_posted, 1u);  // the pre-post send
      EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, second);
    }
  }
}

// Skb pool exhausted while staged bytes hold every token: the posted send
// reports ResourceExhausted (counted as a pool-exhaustion fallback, distinct
// from not-posted) and succeeds once reclaim KFUNCs refill the pool.
TEST(IpcFuseFallback, PoolExhaustedDuringStagedDrain) {
  simos::SimKernel::Config kconfig;
  kconfig.skb_pool_size = 4;  // 16 KiB of skbs
  simos::SimKernel kernel(kconfig);
  core::CopierService::Options options;
  options.config.enable_ipc_fuse = true;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  simos::Process* sender = kernel.CreateProcess("sender");
  simos::Process* receiver = kernel.CreateProcess("receiver");
  service.AttachProcess(sender);
  service.AttachProcess(receiver);
  auto [tx, rx] = kernel.CreateSocketPair();

  const size_t half = 4 * simos::kMtu;  // exactly the pool
  const size_t n = 2 * half;
  auto src_or = sender->mem().MapAnonymous(n, "src", true);
  auto win_or = receiver->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(src_or.ok() && win_or.ok());
  FillPattern(sender->mem(), *src_or, n, 3);

  // Classic send takes the whole pool; deliver the skbs to the peer.
  auto s1 = kernel.Send(*sender, tx, *src_or, half, nullptr);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(*s1, half);
  service.DrainAll();

  // Post the window: the queued skbs are staged into it, but their reclaim
  // KFUNCs have not run yet — the pool is still empty.
  auto staged = kernel.PostRecv(*receiver, rx, *win_or, n, nullptr, {});
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(*staged, half);
  EXPECT_EQ(kernel.skb_pool().available(), 0u);

  auto blocked = kernel.Send(*sender, tx, *src_or + half, half, nullptr);
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.ipc_fuse_stats().fallback_pool_exhausted, 1u);
  EXPECT_EQ(service.ipc_fuse_stats().fallback_not_posted, 1u);  // pre-post send
  // Satellite: the pool's own stats tell exhaustion pressure apart.
  EXPECT_GE(kernel.skb_pool().acquire_failures(), 1u);
  EXPECT_EQ(kernel.skb_pool().low_watermark(), 0u);

  // Reclaims refill the pool; the retry goes fused.
  service.DrainAll();
  EXPECT_EQ(kernel.skb_pool().available(), 4u);
  auto s2 = kernel.Send(*sender, tx, *src_or + half, half, nullptr);
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(*s2, half);
  service.DrainAll();
  EXPECT_EQ(service.ipc_fuse_stats().fused, 1u);
  auto filled = kernel.CompleteRecv(*receiver, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(receiver->mem(), *win_or, n), ReadAll(sender->mem(), *src_or, n));
}

// Aborting a fused task in flight reclaims every flow-control token and the
// sender's write lock, and never marks the window descriptor ready.
TEST(IpcFuseFallback, AbortInFlightFusedTask) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 16 * kKiB;  // 4 chunks
  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 77);
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());
  const std::vector<uint8_t> before = ReadAll(peer->mem(), *win_or, n);

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, ropts).ok());
  const size_t pool_full = stack.kernel->skb_pool().available();
  auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, n);
  ASSERT_EQ(stack.service->ipc_fuse_stats().fused, 1u);
  EXPECT_TRUE(stack.proc->mem().WriteLockedForCopy(src, n));

  // Abort the in-flight fused task (it rides the sender's client; its dst is
  // the receiver's window).
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kAbort;
  sync.addr = core::MemRef::User(&peer->mem(), *win_or);
  sync.length = n;
  ASSERT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(sync)));
  stack.service->DrainAll();

  // Tokens returned by the fired reclaim handlers; source lock released; no
  // bytes moved, no fused bytes counted.
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, n));
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), before);
  EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, 0u);
  // The sender can write its buffer again without blocking.
  FillPattern(stack.proc->mem(), src, n, 78);
}

// Alternating posted and classic transfers on one socket keep stream order in
// both modes.
TEST(IpcFuseFallback, MixedFusedAndClassicOrdering) {
  std::vector<uint8_t> images[2];
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    auto [tx, rx] = stack.kernel->CreateSocketPair();

    const size_t chunk = 12 * kKiB + 34;
    const int rounds = 4;
    const size_t n = chunk * rounds;
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, 1234);
    auto dst_or = peer->mem().MapAnonymous(n, "dst", true);
    ASSERT_TRUE(dst_or.ok());

    for (int r = 0; r < rounds; ++r) {
      const uint64_t s = src + r * chunk;
      const uint64_t d = *dst_or + r * chunk;
      if (r % 2 == 0) {
        // Posted round.
        ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, d, chunk, nullptr, {}).ok());
        size_t sent_total = 0;
        while (sent_total < chunk) {
          auto sent = stack.kernel->Send(*stack.proc, tx, s + sent_total, chunk - sent_total,
                                         nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
        auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
        ASSERT_TRUE(filled.ok());
        ASSERT_EQ(*filled, chunk);
      } else {
        // Classic round.
        size_t sent_total = 0;
        while (sent_total < chunk) {
          auto sent = stack.kernel->Send(*stack.proc, tx, s + sent_total, chunk - sent_total,
                                         nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
        size_t received = 0;
        while (received < chunk) {
          auto got = stack.kernel->Recv(*peer, rx, d + received, chunk - received, nullptr);
          ASSERT_TRUE(got.ok());
          received += *got;
          stack.service->DrainAll();
        }
      }
    }
    images[fuse ? 0 : 1] = ReadAll(peer->mem(), *dst_or, n);
    EXPECT_EQ(images[fuse ? 0 : 1], ReadAll(stack.proc->mem(), src, n));
  }
  EXPECT_EQ(images[0], images[1]);
}

TEST(IpcFuse, EachEventBumpsOnlyItsOwnField) {
  using Stats = core::CopierService::IpcFuseStats;
  const std::vector<std::pair<simos::FuseEvent, uint64_t Stats::*>> fields = {
      {simos::FuseEvent::kFused, &Stats::fused},
      {simos::FuseEvent::kFallbackNotPosted, &Stats::fallback_not_posted},
      {simos::FuseEvent::kFallbackWindowFull, &Stats::fallback_window_full},
      {simos::FuseEvent::kFallbackPoolExhausted, &Stats::fallback_pool_exhausted},
      {simos::FuseEvent::kFallbackRing, &Stats::fallback_ring},
      {simos::FuseEvent::kForwardFused, &Stats::forward_fused},
      {simos::FuseEvent::kFallbackForward, &Stats::fallback_forward},
      {simos::FuseEvent::kRingWindowPosted, &Stats::ring_windows_posted},
      {simos::FuseEvent::kRingRollover, &Stats::ring_rollovers},
  };
  ASSERT_EQ(fields.size(), static_cast<size_t>(simos::FuseEvent::kRingRollover) + 1);
  core::CopierService service({});
  for (const auto& [event, field] : fields) {
    const Stats before = service.ipc_fuse_stats();
    service.NoteIpcFuseEvent(event);
    const Stats after = service.ipc_fuse_stats();
    for (const auto& [other, other_field] : fields) {
      EXPECT_EQ(after.*other_field, before.*other_field + (other == event ? 1 : 0))
          << "event " << static_cast<int>(event) << ", field of event "
          << static_cast<int>(other);
    }
  }
}

TEST(IpcFuse, RecvRejectedWhileWindowPosted) {
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  (void)tx;
  auto win_or = peer->mem().MapAnonymous(2 * kPageSize, "win", true);
  ASSERT_TRUE(win_or.ok());
  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, kPageSize, nullptr, {}).ok());
  auto r = stack.kernel->Recv(*peer, rx, *win_or, kPageSize, nullptr);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // A second post extends the receive ring.
  ASSERT_TRUE(
      stack.kernel->PostRecv(*peer, rx, *win_or + kPageSize, kPageSize, nullptr, {}).ok());
  for (int i = 0; i < 2; ++i) {
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, 0u);
  }
  // With both windows reaped, Recv works again (EAGAIN on empty).
  EXPECT_EQ(stack.kernel->Recv(*peer, rx, *win_or, kPageSize, nullptr).status().code(),
            StatusCode::kUnavailable);
}

// A sender store into the in-flight range blocks until the fused copy lands:
// the receiver observes the pre-store snapshot, exactly like the two-step
// path's eager staging.
TEST(IpcFuse, SenderWriteProtectedUntilCopyLands) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t n = 64 * kKiB;
  const uint64_t src = stack.Map(n, "src");
  FillPattern(stack.proc->mem(), src, n, 500);
  const std::vector<uint8_t> snapshot = ReadAll(stack.proc->mem(), src, n);
  auto win_or = peer->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(win_or.ok());

  ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
  auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, n);
  ASSERT_TRUE(stack.proc->mem().WriteLockedForCopy(src, n));

  // The store blocks, pumping the service until the copy completes.
  const std::vector<uint8_t> overwrite(n, 0xEE);
  ASSERT_TRUE(stack.proc->mem().WriteBytes(src, overwrite.data(), n).ok());
  EXPECT_GE(stack.proc->mem().copy_lock_waits(), 1u);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, n));

  stack.service->DrainAll();
  auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), snapshot);       // pre-store image
  EXPECT_EQ(ReadAll(stack.proc->mem(), src, n), overwrite);    // store landed after
}

// Exact fused-byte accounting across several posted transfers.
TEST(IpcFuse, FusedBytesAccountingIsExact) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  size_t expected = 0;
  uint64_t windows = 0;
  for (const size_t n : {size_t{4 * kKiB}, size_t{9 * kKiB + 17}, size_t{256 * kKiB}}) {
    const uint64_t src = stack.Map(n, "src");
    FillPattern(stack.proc->mem(), src, n, n);
    auto win_or = peer->mem().MapAnonymous(n, "win", true);
    ASSERT_TRUE(win_or.ok());
    ASSERT_TRUE(stack.kernel->PostRecv(*peer, rx, *win_or, n, nullptr, {}).ok());
    size_t sent_total = 0;
    while (sent_total < n) {
      auto sent = stack.kernel->Send(*stack.proc, tx, src + sent_total, n - sent_total,
                                     nullptr);
      ASSERT_TRUE(sent.ok());
      sent_total += *sent;
      stack.service->DrainAll();
    }
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    ASSERT_EQ(*filled, n);
    EXPECT_EQ(ReadAll(peer->mem(), *win_or, n), ReadAll(stack.proc->mem(), src, n));
    expected += n;
    ++windows;
    EXPECT_EQ(stack.service->TotalStats().fused_ipc_bytes, expected);
  }
  EXPECT_EQ(stack.service->ipc_fuse_stats().fused, windows);
}

// Threaded service: the fused path's lock resolver yields to the copier
// threads instead of pumping (TSan coverage; all syscalls on this thread).
TEST(IpcFuseThreaded, PostedTransferCompletes) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.enable_ipc_fuse = true;
  options.config.max_threads = 2;
  options.config.min_threads = 2;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  service.Start();
  simos::Process* sender = kernel.CreateProcess("sender");
  simos::Process* receiver = kernel.CreateProcess("receiver");
  service.AttachProcess(sender);
  service.AttachProcess(receiver);
  auto [tx, rx] = kernel.CreateSocketPair();

  const size_t n = 256 * kKiB + 123;
  auto src_or = sender->mem().MapAnonymous(n, "src", true);
  auto win_or = receiver->mem().MapAnonymous(n, "win", true);
  ASSERT_TRUE(src_or.ok() && win_or.ok());
  FillPattern(sender->mem(), *src_or, n, 2024);

  core::Descriptor descriptor(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &descriptor;
  ASSERT_TRUE(kernel.PostRecv(*receiver, rx, *win_or, n, nullptr, ropts).ok());
  size_t sent_total = 0;
  while (sent_total < n) {
    auto sent = kernel.Send(*sender, tx, *src_or + sent_total, n - sent_total, nullptr);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    sent_total += *sent;
  }
  // Mid-flight overwrite: must block until the snapshot landed.
  const std::vector<uint8_t> snapshot = ReadAll(sender->mem(), *src_or, n);
  const std::vector<uint8_t> overwrite(n, 0xAB);
  ASSERT_TRUE(sender->mem().WriteBytes(*src_or, overwrite.data(), n).ok());

  ASSERT_TRUE(core::WaitDescriptor(descriptor, 0, n, nullptr, nullptr).ok());
  auto filled = kernel.CompleteRecv(*receiver, rx, nullptr);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, n);
  EXPECT_EQ(ReadAll(receiver->mem(), *win_or, n), snapshot);
  service.Stop();
}

// --- receive-ring stress (DESIGN.md §12, multi-window rings) -----------------

// Pipelined sender against a FIFO receive ring that is smaller than the
// burst: `messages` back-to-back sends against `ring` pre-posted windows.
// Sends beyond the ring fall back classic; reaping a window re-posts the next
// one, whose staged drain pulls the queued bytes in — stream order holds
// end to end.
struct RingRunResult {
  std::vector<uint8_t> image;  // reaped windows, concatenated in stream order
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;
  core::CopierService::IpcFuseStats fuse = {};
};

RingRunResult RunRingPipelinedWorkload(bool fuse, size_t msg, size_t ring, size_t messages) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t total = msg * messages;
  const uint64_t src = stack.Map(total, "src");
  FillPattern(stack.proc->mem(), src, total, 0xA11CE + msg);
  auto win_or = peer->mem().MapAnonymous(total, "win", true);
  EXPECT_TRUE(win_or.ok());

  RingRunResult result;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { result.probe.push_back(id); });

  std::vector<std::unique_ptr<core::Descriptor>> descriptors;
  for (size_t i = 0; i < messages; ++i) {
    descriptors.push_back(std::make_unique<core::Descriptor>(msg));
  }
  std::vector<simos::SimKernel::RecvWindowSpec> specs;
  for (size_t i = 0; i < std::min(ring, messages); ++i) {
    specs.push_back({*win_or + i * msg, msg, descriptors[i].get()});
  }
  EXPECT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());

  // Burst every message before reaping anything (queue depth = messages).
  for (size_t i = 0; i < messages; ++i) {
    size_t sent_total = 0;
    while (sent_total < msg) {
      auto sent =
          stack.kernel->Send(*stack.proc, tx, src + i * msg + sent_total, msg - sent_total,
                             nullptr);
      EXPECT_TRUE(sent.ok()) << sent.status().ToString();
      sent_total += *sent;
      stack.service->DrainAll();
    }
  }

  // Reap FIFO; each reap re-posts the next window so the classic-queued tail
  // stages in behind the fused head.
  for (size_t i = 0; i < messages; ++i) {
    EXPECT_TRUE(core::WaitDescriptor(*descriptors[i], 0, msg, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    EXPECT_TRUE(filled.ok()) << filled.status().ToString();
    EXPECT_EQ(*filled, msg);
    const size_t next = ring + i;
    if (next < messages) {
      simos::RecvOptions ropts;
      ropts.descriptor = descriptors[next].get();
      EXPECT_TRUE(
          stack.kernel->PostRecv(*peer, rx, *win_or + next * msg, msg, nullptr, ropts).ok());
    }
  }

  result.image = ReadAll(peer->mem(), *win_or, total);
  result.kfuncs_run = stack.service->TotalStats().kfuncs_run;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(RecvRingStress, PipelinedDepthBeyondRingDifferential) {
  const size_t msg = 24 * kKiB + 96;
  const size_t ring = 2;
  const size_t messages = 5;  // depth > ring: 3 messages overflow the ring
  const RingRunResult fused = RunRingPipelinedWorkload(/*fuse=*/true, msg, ring, messages);
  const RingRunResult staged = RunRingPipelinedWorkload(/*fuse=*/false, msg, ring, messages);

  EXPECT_EQ(fused.image, staged.image);
  EXPECT_EQ(fused.kfuncs_run, staged.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 0u);
  EXPECT_EQ(fused.probe, staged.probe);

  // The fused arm's ladder: the first `ring` messages fuse, the overflow
  // falls back window-full, and every re-post behind a live ring counts.
  EXPECT_GE(fused.fuse.fused, ring);
  EXPECT_GE(fused.fuse.fallback_window_full, 1u);
  EXPECT_GE(fused.fuse.ring_windows_posted, ring - 1);
}

// A whole pipelined burst landing in one ring: every message fuses and a
// send spanning two windows rolls over without falling back.
TEST(RecvRingStress, BurstWithinRingAllFused) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t msg = 16 * kKiB;
  const size_t depth = 4;
  const uint64_t src = stack.Map(msg * depth, "src");
  FillPattern(stack.proc->mem(), src, msg * depth, 31337);
  auto win_or = peer->mem().MapAnonymous(msg * depth, "win", true);
  ASSERT_TRUE(win_or.ok());

  std::vector<std::unique_ptr<core::Descriptor>> descriptors;
  std::vector<simos::SimKernel::RecvWindowSpec> specs;
  for (size_t i = 0; i < depth; ++i) {
    descriptors.push_back(std::make_unique<core::Descriptor>(msg));
    specs.push_back({*win_or + i * msg, msg, descriptors[i].get()});
  }
  ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());

  // One double-width send (rolls over window 0 -> 1), then two singles.
  auto wide = stack.kernel->Send(*stack.proc, tx, src, 2 * msg, nullptr);
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(*wide, 2 * msg);
  for (size_t i = 2; i < depth; ++i) {
    auto sent = stack.kernel->Send(*stack.proc, tx, src + i * msg, msg, nullptr);
    ASSERT_TRUE(sent.ok());
    ASSERT_EQ(*sent, msg);
  }
  for (size_t i = 0; i < depth; ++i) {
    ASSERT_TRUE(core::WaitDescriptor(*descriptors[i], 0, msg, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, msg);
  }
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, msg * depth),
            ReadAll(stack.proc->mem(), src, msg * depth));
  const auto fuse_stats = stack.service->ipc_fuse_stats();
  EXPECT_EQ(fuse_stats.fallbacks(), 0u);
  EXPECT_EQ(fuse_stats.fused_rate(), 1.0);
  EXPECT_GE(fuse_stats.ring_rollovers, 1u);
  EXPECT_EQ(fuse_stats.ring_windows_posted, depth - 1);
}

// Aborting a fused send mid-stream leaves the rest of the ring usable: the
// next message lands in the following window, tokens and source locks all
// come back, and the aborted window's descriptor settles without bytes.
TEST(RecvRingStress, MidStreamAbortLeavesRingUsable) {
  core::CopierConfig config;
  config.enable_ipc_fuse = true;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();

  const size_t msg = 16 * kKiB;
  const uint64_t src = stack.Map(2 * msg, "src");
  FillPattern(stack.proc->mem(), src, 2 * msg, 555);
  auto win_or = peer->mem().MapAnonymous(2 * msg, "win", true);
  ASSERT_TRUE(win_or.ok());
  const std::vector<uint8_t> win0_before = ReadAll(peer->mem(), *win_or, msg);

  core::Descriptor d0(msg);
  core::Descriptor d1(msg);
  const std::vector<simos::SimKernel::RecvWindowSpec> specs = {
      {*win_or, msg, &d0}, {*win_or + msg, msg, &d1}};
  ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());
  const size_t pool_full = stack.kernel->skb_pool().available();

  // First message in flight, then aborted before the engine runs it.
  auto s0 = stack.kernel->Send(*stack.proc, tx, src, msg, nullptr);
  ASSERT_TRUE(s0.ok());
  ASSERT_EQ(*s0, msg);
  core::SyncTask sync;
  sync.kind = core::SyncTask::Kind::kAbort;
  sync.addr = core::MemRef::User(&peer->mem(), *win_or);
  sync.length = msg;
  ASSERT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(sync)));
  stack.service->DrainAll();
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_FALSE(stack.proc->mem().WriteLockedForCopy(src, msg));

  // Second message: the aborted window is consumed, the ring moves on.
  auto s1 = stack.kernel->Send(*stack.proc, tx, src + msg, msg, nullptr);
  ASSERT_TRUE(s1.ok());
  ASSERT_EQ(*s1, msg);
  ASSERT_TRUE(
      core::WaitDescriptor(d1, 0, msg, nullptr, [&] { stack.service->DrainAll(); }).ok());
  // An explicit abort settles the descriptor as complete, not failed: the
  // client discarded the copy and promised not to read the bytes (§4.4), and
  // csync_all must not wait forever on it. MarkFailed is reserved for faults.
  EXPECT_TRUE(d0.RangeReady(0, msg));
  EXPECT_FALSE(d0.failed());
  EXPECT_FALSE(d1.failed());

  auto reap0 = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(reap0.ok());  // aborted window: reaped, bytes untouched
  EXPECT_EQ(ReadAll(peer->mem(), *win_or, msg), win0_before);
  auto reap1 = stack.kernel->CompleteRecv(*peer, rx, nullptr);
  ASSERT_TRUE(reap1.ok());
  EXPECT_EQ(*reap1, msg);
  EXPECT_EQ(ReadAll(peer->mem(), *win_or + msg, msg),
            ReadAll(stack.proc->mem(), src + msg, msg));
  EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
  EXPECT_EQ(stack.service->ipc_fuse_stats().fused, 2u);
}

// Connection churn under pipelined ring traffic: fresh socket pairs mid-run,
// every round byte-verified, all flow-control tokens back at the end.
TEST(RecvRingStress, ConnectionChurnDifferential) {
  const size_t msg = 12 * kKiB + 40;
  const int rounds = 5;
  std::vector<uint8_t> images[2];
  uint64_t kfuncs[2] = {0, 0};
  std::vector<uint32_t> probes[2];
  for (const bool fuse : {true, false}) {
    core::CopierConfig config;
    config.enable_ipc_fuse = fuse;
    CopierStack stack(config);
    simos::Process* peer = stack.kernel->CreateProcess("peer");
    stack.service->AttachProcess(peer);
    const size_t pool_full = stack.kernel->skb_pool().available();

    std::vector<uint32_t> probe;
    stack.kernel->SetKfuncProbe([&](uint32_t id) { probe.push_back(id); });
    const uint64_t src = stack.Map(2 * msg * rounds, "src");
    FillPattern(stack.proc->mem(), src, 2 * msg * rounds, 9090);
    auto win_or = peer->mem().MapAnonymous(2 * msg * rounds, "win", true);
    ASSERT_TRUE(win_or.ok());

    std::vector<uint8_t> image;
    for (int round = 0; round < rounds; ++round) {
      // Reconnect: a fresh pair each round (the serve harness churn shape).
      auto [tx, rx] = stack.kernel->CreateSocketPair();
      const uint64_t rsrc = src + 2 * msg * round;
      const uint64_t rwin = *win_or + 2 * msg * round;
      core::Descriptor d0(msg);
      core::Descriptor d1(msg);
      const std::vector<simos::SimKernel::RecvWindowSpec> specs = {
          {rwin, msg, &d0}, {rwin + msg, msg, &d1}};
      ASSERT_TRUE(stack.kernel->PostRecvRing(*peer, rx, specs, nullptr).ok());
      for (int i = 0; i < 2; ++i) {
        size_t sent_total = 0;
        while (sent_total < msg) {
          auto sent = stack.kernel->Send(*stack.proc, tx, rsrc + i * msg + sent_total,
                                         msg - sent_total, nullptr);
          ASSERT_TRUE(sent.ok());
          sent_total += *sent;
          stack.service->DrainAll();
        }
      }
      for (core::Descriptor* d : {&d0, &d1}) {
        ASSERT_TRUE(core::WaitDescriptor(*d, 0, msg, nullptr,
                                         [&] { stack.service->DrainAll(); })
                        .ok());
        auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
        ASSERT_TRUE(filled.ok());
        ASSERT_EQ(*filled, msg);
      }
      const std::vector<uint8_t> got = ReadAll(peer->mem(), rwin, 2 * msg);
      EXPECT_EQ(got, ReadAll(stack.proc->mem(), rsrc, 2 * msg));
      image.insert(image.end(), got.begin(), got.end());
    }
    EXPECT_EQ(stack.kernel->skb_pool().available(), pool_full);
    if (fuse) {
      EXPECT_EQ(stack.service->ipc_fuse_stats().fused, 2u * rounds);
      EXPECT_EQ(stack.service->ipc_fuse_stats().fallbacks(), 0u);
    }
    images[fuse ? 0 : 1] = std::move(image);
    kfuncs[fuse ? 0 : 1] = stack.service->TotalStats().kfuncs_run;
    probes[fuse ? 0 : 1] = std::move(probe);
  }
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(kfuncs[0], kfuncs[1]);
  EXPECT_EQ(probes[0], probes[1]);
}

// --- proxy-transparent forwarding (DESIGN.md §12) ----------------------------

struct ForwardRunResult {
  std::vector<uint8_t> kv_image;
  uint64_t kfuncs_run = 0;
  std::vector<uint32_t> probe;
  core::CopierService::IpcFuseStats fuse = {};
};

// Client ships "FWD <id> <len>\r\n<body>" into the proxy's forward-posted
// window; fused arm: the kernel re-frames it as the "VIA" parcel and splices
// it straight into the KV server's binder window. Ablation: the message lands
// in the proxy, which parses, marshals and transacts app-level — the exact
// work the forward rule replaces.
ForwardRunResult RunForwardWorkload(bool fuse, size_t body_len, bool split_send) {
  core::CopierConfig config;
  config.enable_ipc_fuse = fuse;
  CopierStack stack(config);
  simos::Process* proxy = stack.kernel->CreateProcess("proxy");
  simos::Process* kv = stack.kernel->CreateProcess("kv");
  stack.service->AttachProcess(proxy);
  stack.service->AttachProcess(kv);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  simos::BinderDriver binder(stack.kernel.get());

  std::vector<uint8_t> body(body_len);
  for (size_t i = 0; i < body_len; ++i) {
    body[i] = static_cast<uint8_t>(i * 131 + 5);
  }
  const int upstream = 9;
  const std::vector<uint8_t> fwd_msg = apps::MiniProxy::BuildMessage(upstream, body);
  const size_t n = fwd_msg.size();
  char via[64];
  const int via_len = std::snprintf(via, sizeof(via), "VIA %d %zu\r\n", upstream, body_len);
  const size_t parcel_len = 4 + static_cast<size_t>(via_len) + body_len;

  const uint64_t src = stack.Map(n, "fwd-src");
  EXPECT_TRUE(stack.proc->mem().WriteBytes(src, fwd_msg.data(), n).ok());
  auto pwin_or = proxy->mem().MapAnonymous(n, "proxy-win", true);
  auto kv_win_or = kv->mem().MapAnonymous(parcel_len, "kv-win", true);
  auto marshal_or = proxy->mem().MapAnonymous(parcel_len, "marshal", true);
  EXPECT_TRUE(pwin_or.ok() && kv_win_or.ok() && marshal_or.ok());

  ForwardRunResult result;
  stack.kernel->SetKfuncProbe([&](uint32_t id) { result.probe.push_back(id); });

  core::Descriptor d2(parcel_len);
  EXPECT_TRUE(binder.PostReceive(*kv, *kv_win_or, parcel_len, &d2, nullptr).ok());
  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  rx->SetForwardRule(apps::MiniProxy::MakeParcelForwardRule(&binder));
  EXPECT_TRUE(stack.kernel->PostRecv(*proxy, rx, *pwin_or, n, nullptr, ropts).ok());

  if (split_send) {
    // A partial frame first: the rule must decline (fallback_forward) and the
    // bytes land in the window app-level instead.
    const size_t half = n / 2;
    auto first = stack.kernel->Send(*stack.proc, tx, src, half, nullptr);
    EXPECT_TRUE(first.ok() && *first == half);
    auto rest = stack.kernel->Send(*stack.proc, tx, src + half, n - half, nullptr);
    EXPECT_TRUE(rest.ok() && *rest == n - half);
  } else {
    auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
    EXPECT_TRUE(sent.ok()) << sent.status().ToString();
    EXPECT_EQ(*sent, n);
  }
  EXPECT_TRUE(
      core::WaitDescriptor(d1, 0, n, nullptr, [&] { stack.service->DrainAll(); }).ok());
  auto reaped = stack.kernel->CompleteRecv(*proxy, rx, nullptr);
  EXPECT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, n);

  if (stack.service->ipc_fuse_stats().forward_fused == 0) {
    // App-level completion: what the forward rule fuses away.
    const std::vector<uint8_t> landed = ReadAll(proxy->mem(), *pwin_or, n);
    EXPECT_EQ(landed, fwd_msg);
    apps::ParcelWriter writer;
    std::string item(via, via + via_len);
    item.append(body.begin(), body.end());
    writer.WriteString(item);
    EXPECT_EQ(writer.bytes().size(), parcel_len);
    EXPECT_TRUE(proxy->mem().WriteBytes(*marshal_or, writer.bytes().data(), parcel_len).ok());
    auto txn = binder.Transact(*proxy, *marshal_or, parcel_len, nullptr);
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_TRUE(txn->in_window);
    EXPECT_TRUE(core::WaitDescriptor(d2, 0, parcel_len, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
    binder.Release(txn->id);
  } else {
    EXPECT_TRUE(core::WaitDescriptor(d2, 0, parcel_len, nullptr,
                                     [&] { stack.service->DrainAll(); })
                    .ok());
  }
  result.kv_image = ReadAll(kv->mem(), *kv_win_or, parcel_len);
  result.kfuncs_run = stack.service->TotalStats().kfuncs_run;
  result.fuse = stack.service->ipc_fuse_stats();
  return result;
}

TEST(ForwardFuse, FusedMatchesAppLevelPath) {
  const size_t body_len = 96 * kKiB + 31;
  const ForwardRunResult fused =
      RunForwardWorkload(/*fuse=*/true, body_len, /*split_send=*/false);
  const ForwardRunResult staged =
      RunForwardWorkload(/*fuse=*/false, body_len, /*split_send=*/false);

  // The KV server sees the identical parcel either way.
  EXPECT_EQ(fused.kv_image, staged.kv_image);
  // KFUNC parity: k skb-chunk reclaims + 1 binder release on both arms, and
  // the socket probes fire the same skb ids in the same order.
  EXPECT_EQ(fused.kfuncs_run, staged.kfuncs_run);
  EXPECT_GT(fused.kfuncs_run, 1u);
  EXPECT_EQ(fused.probe, staged.probe);

  EXPECT_EQ(fused.fuse.forward_fused, 1u);
  EXPECT_EQ(fused.fuse.fallback_forward, 0u);
  EXPECT_EQ(staged.fuse.forward_fused, 0u);
}

TEST(ForwardFuse, PartialFrameDeclinesLosslessly) {
  const size_t body_len = 32 * kKiB + 7;
  const ForwardRunResult declined =
      RunForwardWorkload(/*fuse=*/true, body_len, /*split_send=*/true);
  const ForwardRunResult staged =
      RunForwardWorkload(/*fuse=*/false, body_len, /*split_send=*/true);

  // The decline rode the app-level path; nothing lost, nothing forwarded.
  EXPECT_EQ(declined.kv_image, staged.kv_image);
  EXPECT_EQ(declined.fuse.forward_fused, 0u);
  EXPECT_GE(declined.fuse.fallback_forward, 1u);
  // The landing itself still fused into the posted window.
  EXPECT_GE(declined.fuse.fused, 1u);
}

// Prefix length == header length with page-aligned endpoints: the spliced
// source stays page-congruent with the destination window, and the rewritten
// header plus the whole body land in one forwarded copy.
TEST(ForwardFuse, PageCongruentPrefixForwardsWholeMessage) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.config.enable_ipc_fuse = true;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  simos::Process* client = kernel.CreateProcess("client");
  simos::Process* proxy = kernel.CreateProcess("proxy");
  simos::Process* kv = kernel.CreateProcess("kv");
  service.AttachProcess(client);
  service.AttachProcess(proxy);
  service.AttachProcess(kv);
  auto [tx, rx] = kernel.CreateSocketPair();
  simos::BinderDriver binder(&kernel);

  constexpr size_t kHdr = 16;
  const size_t body_len = 256 * kKiB;
  const size_t n = kHdr + body_len;
  auto src_or = client->mem().MapAnonymous(n, "src", true);
  auto pwin_or = proxy->mem().MapAnonymous(n, "proxy-win", true);
  auto kv_win_or = kv->mem().MapAnonymous(n, "kv-win", true);
  ASSERT_TRUE(src_or.ok() && pwin_or.ok() && kv_win_or.ok());
  std::vector<uint8_t> msg(n);
  std::memcpy(msg.data(), "HDR:0123456789ab", kHdr);
  for (size_t i = 0; i < body_len; ++i) {
    msg[kHdr + i] = static_cast<uint8_t>(i * 17 + 3);
  }
  ASSERT_TRUE(client->mem().WriteBytes(*src_or, msg.data(), n).ok());

  // Fixed-width header rewrite: the prefix is exactly as long as the header
  // it replaces, so src+body_off and the window stay page-congruent.
  auto rule = std::make_shared<simos::ForwardRule>();
  rule->endpoint = &binder;
  rule->inspect_limit = kHdr;
  rule->rewrite_cycles = 0;
  rule->rewrite = [body_len](const uint8_t* head, size_t head_len,
                             size_t total) -> std::optional<simos::ForwardAction> {
    if (head_len < kHdr || total != kHdr + body_len ||
        std::memcmp(head, "HDR:", 4) != 0) {
      return std::nullopt;
    }
    simos::ForwardAction action;
    action.body_off = kHdr;
    action.prefix.assign(head, head + kHdr);
    action.prefix[0] = 'V';
    action.prefix[1] = 'I';
    action.prefix[2] = 'A';
    return action;
  };
  rx->SetForwardRule(rule);

  core::Descriptor d2(n);
  ASSERT_TRUE(binder.PostReceive(*kv, *kv_win_or, n, &d2, nullptr).ok());
  core::Descriptor d1(n);
  simos::RecvOptions ropts;
  ropts.descriptor = &d1;
  ASSERT_TRUE(kernel.PostRecv(*proxy, rx, *pwin_or, n, nullptr, ropts).ok());
  auto sent = kernel.Send(*client, tx, *src_or, n, nullptr);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  ASSERT_EQ(*sent, n);
  ASSERT_TRUE(core::WaitDescriptor(d1, 0, n, nullptr, [&] { service.DrainAll(); }).ok());
  ASSERT_TRUE(core::WaitDescriptor(d2, 0, n, nullptr, [&] { service.DrainAll(); }).ok());
  auto reaped = kernel.CompleteRecv(*proxy, rx, nullptr);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, n);

  std::vector<uint8_t> expected = msg;
  expected[0] = 'V';
  expected[1] = 'I';
  expected[2] = 'A';
  EXPECT_EQ(ReadAll(kv->mem(), *kv_win_or, n), expected);
  EXPECT_EQ(service.ipc_fuse_stats().forward_fused, 1u);
}

// Posted-receive Parcel channel (apps layer) delivers identical strings in
// fused and ablated runs.
TEST(IpcFuseApps, PostedParcelChannelRoundTrip) {
  for (const bool fuse : {true, false}) {
    simos::SimKernel kernel;
    core::CopierService::Options options;
    options.config.enable_ipc_fuse = fuse;
    auto service = std::make_unique<core::CopierService>(std::move(options));
    core::CopierLinux glue(service.get(), &kernel);
    glue.Install();
    apps::AppProcess client(&kernel, service.get(), apps::Mode::kCopier, "client");
    apps::AppProcess server(&kernel, service.get(), apps::Mode::kCopier, "server");
    simos::BinderDriver binder(&kernel);
    apps::BinderParcelChannel channel(&binder, &client, &server, /*posted_receive=*/true);

    std::vector<std::string> strings;
    for (int i = 0; i < 12; ++i) {
      strings.push_back(std::string(100 + 400 * i, static_cast<char>('a' + i)));
    }
    auto result = channel.Call(strings, &client.ctx(), &server.ctx());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, strings);
    if (fuse) {
      EXPECT_GE(service->ipc_fuse_stats().fused, 1u);
      EXPECT_GT(service->TotalStats().fused_ipc_bytes, 0u);
    } else {
      EXPECT_EQ(service->TotalStats().fused_ipc_bytes, 0u);
    }
  }
}

// --- window re-post: cached registration --------------------------------------

// What a mapping change does to the receiver between its two posts of the same
// window VA.
enum class RepostEvent {
  kNone,      // nothing: the registration is still warm
  kFork,      // the receiver forks, so its window pages turn CoW
  kRemap,     // the window is unmapped and mapped afresh at the same VA
  kReattach,  // the receiver detaches, forks while unattached, then reattaches
};

struct RepostResult {
  bool warm_before_repost = false;
  std::vector<uint8_t> image;        // receiver's window after the second transfer
  std::vector<uint8_t> child_image;  // forked child's window (fork events only)
  uint64_t hits = 0;                 // ATCache hits/misses over the second transfer
  uint64_t misses = 0;
  Cycles post_cycles = 0;  // receiver clock charged by the second post
  Cycles ready = 0;        // completion cycle of the second transfer
};

// Two posted-window transfers of `n` bytes into the same receiver window VA,
// with `event` in between. `force_walk` invalidates the window's translations
// right before the second post, so that post registers it as a first post does.
RepostResult RunRepost(RepostEvent event, bool force_walk) {
  constexpr size_t n = 256 * kKiB;
  core::CopierConfig config;
  config.engine_count = 2;
  CopierStack stack(config);
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  core::Client* peer_client = stack.service->AttachProcess(peer);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  const uint64_t src = stack.Map(n, "src");
  auto win_or = peer->mem().MapAnonymous(n, "win", /*populate=*/true);
  EXPECT_TRUE(win_or.ok());
  const uint64_t win = *win_or;

  ExecContext rctx("receiver");
  const auto atcache_totals = [&] {
    std::pair<uint64_t, uint64_t> totals;
    for (size_t i = 0; i < stack.service->engine_count(); ++i) {
      totals.first += stack.service->engine(i).atcache().hits();
      totals.second += stack.service->engine(i).atcache().misses();
    }
    return totals;
  };
  const auto transfer = [&](core::Descriptor& descriptor) {
    simos::RecvOptions ropts;
    ropts.descriptor = &descriptor;
    EXPECT_TRUE(stack.kernel->PostRecv(*peer, rx, win, n, &rctx, ropts).ok());
    auto sent = stack.kernel->Send(*stack.proc, tx, src, n, nullptr);
    EXPECT_TRUE(sent.ok() && *sent == n);
    EXPECT_TRUE(
        core::WaitDescriptor(descriptor, 0, n, nullptr, [&] { stack.service->DrainAll(); })
            .ok());
    auto filled = stack.kernel->CompleteRecv(*peer, rx, nullptr);
    EXPECT_TRUE(filled.ok() && *filled == n);
  };

  FillPattern(stack.proc->mem(), src, n, 9001);
  core::Descriptor first(n);
  transfer(first);

  simos::Process* child = nullptr;
  switch (event) {
    case RepostEvent::kNone:
      break;
    case RepostEvent::kFork: {
      auto child_or = stack.kernel->Fork(*peer, nullptr);
      EXPECT_TRUE(child_or.ok());
      child = *child_or;
      break;
    }
    case RepostEvent::kRemap:
      EXPECT_TRUE(peer->mem().Unmap(win, n).ok());
      EXPECT_TRUE(peer->mem().MapAnonymousAt(win, n, "win", /*populate=*/true).ok());
      break;
    case RepostEvent::kReattach: {
      stack.service->DetachClient(*peer_client);
      // No listener sees this fork's CoW downgrade of the window pages.
      auto child_or = stack.kernel->Fork(*peer, nullptr);
      EXPECT_TRUE(child_or.ok());
      child = *child_or;
      stack.service->AttachProcess(peer);
      break;
    }
  }

  RepostResult result;
  result.warm_before_repost = true;
  for (size_t i = 0; i < stack.service->engine_count(); ++i) {
    result.warm_before_repost &= stack.service->engine(i).atcache().IsWarm(peer->mem().asid(), win, n);
  }
  if (force_walk) {
    for (size_t i = 0; i < stack.service->engine_count(); ++i) {
      stack.service->engine(i).atcache().Invalidate(peer->mem().asid(), win, n);
    }
  }
  FillPattern(stack.proc->mem(), src, n, 9002);
  const auto before = atcache_totals();
  const Cycles post_start = rctx.now();
  core::Descriptor second(n);
  transfer(second);
  const auto after = atcache_totals();
  result.hits = after.first - before.first;
  result.misses = after.second - before.second;
  result.post_cycles = rctx.now() - post_start;
  result.ready = second.ReadyTime(0, n);
  result.image = ReadAll(peer->mem(), win, n);
  if (child != nullptr) {
    result.child_image = ReadAll(child->mem(), win, n);
  }
  return result;
}

std::vector<uint8_t> PatternBytes(size_t n, uint64_t seed) {
  simos::SimKernel kernel;
  simos::Process* proc = kernel.CreateProcess("pattern");
  auto va = proc->mem().MapAnonymous(n, "pattern", true);
  EXPECT_TRUE(va.ok());
  FillPattern(proc->mem(), *va, n, seed);
  return ReadAll(proc->mem(), *va, n);
}

class WindowRepost : public ::testing::TestWithParam<RepostEvent> {};

// A re-post lands the new bytes in the receiver's current frames, and costs
// the same virtual time with the same ATCache hits and misses as a post that
// walks the window from scratch. Only an unchanged window stays warm.
TEST_P(WindowRepost, MatchesAFirstPost) {
  const RepostEvent event = GetParam();
  const RepostResult cached = RunRepost(event, /*force_walk=*/false);
  const RepostResult walked = RunRepost(event, /*force_walk=*/true);
  constexpr size_t n = 256 * kKiB;

  EXPECT_EQ(cached.warm_before_repost, event == RepostEvent::kNone);
  EXPECT_EQ(cached.image, PatternBytes(n, 9002));
  EXPECT_EQ(cached.image, walked.image);
  if (event == RepostEvent::kFork || event == RepostEvent::kReattach) {
    // The child keeps the first transfer's bytes: the second one broke CoW.
    EXPECT_EQ(cached.child_image, PatternBytes(n, 9001));
  }
  EXPECT_EQ(cached.hits, walked.hits);
  EXPECT_EQ(cached.misses, walked.misses);
  EXPECT_GT(cached.hits, 0u);
  EXPECT_EQ(cached.post_cycles, walked.post_cycles);
  EXPECT_EQ(cached.ready, walked.ready);
}

INSTANTIATE_TEST_SUITE_P(Events, WindowRepost,
                         ::testing::Values(RepostEvent::kNone, RepostEvent::kFork,
                                           RepostEvent::kRemap, RepostEvent::kReattach),
                         [](const ::testing::TestParamInfo<RepostEvent>& info) {
                           switch (info.param) {
                             case RepostEvent::kNone:
                               return "Unchanged";
                             case RepostEvent::kFork:
                               return "AfterFork";
                             case RepostEvent::kRemap:
                               return "AfterRemap";
                             case RepostEvent::kReattach:
                               return "AfterReattach";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace copier::test
