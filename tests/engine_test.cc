// Engine-level tests: cross-queue barriers (order dependency), out-of-order
// promotion, piggyback dispatch, ATCache, scheduler/cgroup fairness, the
// threaded service mode, a long completed-write log behind a held head, and a
// randomized chain/abort/promotion workload checked against a memcpy replay.
#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "tests/test_util.h"

namespace copier::test {
namespace {

// recv() through the Copier backend: the kernel-submitted task (K: skb->U)
// and an app-submitted task (U->V) after the syscall must execute in order —
// this is exactly the A->B before B->C case of §4.2.1.
TEST(OrderDependency, KernelTaskBeforeDependentUserTask) {
  CopierStack stack;
  const size_t n = 8 * kKiB;
  simos::Process* peer_proc = stack.kernel->CreateProcess("peer");
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  auto peer_buf = peer_proc->mem().MapAnonymous(n, "peer", true);
  ASSERT_TRUE(peer_buf.ok());
  FillPattern(peer_proc->mem(), *peer_buf, n, 3);
  ASSERT_TRUE(stack.kernel->Send(*peer_proc, tx, *peer_buf, n, nullptr).ok());

  const uint64_t io_buf = stack.Map(n);
  const uint64_t dest = stack.Map(n);
  // Copier recv: kernel submits k-mode tasks with our descriptor.
  core::Descriptor* descriptor = stack.lib->pool().Acquire(n);
  simos::RecvOptions opts;
  opts.descriptor = descriptor;
  auto received = stack.kernel->Recv(*stack.proc, rx, io_buf, n, nullptr, opts);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, n);

  // Immediately chain a user-mode copy that reads the recv destination.
  stack.lib->amemcpy(dest, io_buf, n);
  ASSERT_TRUE(stack.lib->csync(dest, n).ok());
  EXPECT_EQ(ReadAll(stack.proc->mem(), dest, n), ReadAll(peer_proc->mem(), *peer_buf, n));
  EXPECT_GE(stack.service->TotalStats().barriers_processed, 2u);  // enter+exit
  stack.lib->pool().Release(descriptor);
}

TEST(OrderDependency, UserTasksBeforeSyscallStayBeforeKernelBatch) {
  CopierStack stack;
  const size_t n = 4 * kKiB;
  const uint64_t a = stack.Map(n);
  const uint64_t b = stack.Map(n);
  FillPattern(stack.proc->mem(), a, n, 8);

  // U task first (not yet served), then a syscall that submits k tasks
  // *reading the same user range* (send of b... use send of `a` so the k task
  // reads what U wrote: U: a->b, K: send(b)).
  stack.lib->amemcpy(b, a, n);
  auto [tx, rx] = stack.kernel->CreateSocketPair();
  ASSERT_TRUE(stack.kernel->Send(*stack.proc, tx, b, n, nullptr).ok());
  stack.service->DrainAll();

  // The peer must observe a's bytes: the k-mode send copy happened after the
  // u-mode a->b copy.
  const uint64_t out = stack.Map(n);
  auto received = stack.kernel->Recv(*stack.proc, rx, out, n, nullptr);
  ASSERT_TRUE(received.ok());
  stack.service->DrainAll();  // flush the descriptor-less recv k-task too
  ASSERT_TRUE(stack.lib->csync_all().ok());
  ExpectSameBytes(stack.proc->mem(), a, out, n);
}

TEST(Promotion, SyncTaskOvertakesHeadOfLine) {
  // Queue a large copy, then a small one; csync the small one. With
  // out-of-order execution the small task's data must be correct even though
  // the big task is still ahead in FIFO order.
  core::CopierConfig config;
  config.copy_slice_bytes = 1;  // effectively disable FIFO auto-drain per pump
  CopierStack stack(config);
  const size_t big = 256 * kKiB;
  const size_t small = 4 * kKiB;
  const uint64_t big_src = stack.Map(big);
  const uint64_t big_dst = stack.Map(big);
  const uint64_t small_src = stack.Map(small);
  const uint64_t small_dst = stack.Map(small);
  FillPattern(stack.proc->mem(), big_src, big, 1);
  FillPattern(stack.proc->mem(), small_src, small, 2);

  stack.lib->amemcpy(big_dst, big_src, big);
  stack.lib->amemcpy(small_dst, small_src, small);
  ASSERT_TRUE(stack.lib->csync(small_dst, small).ok());
  ExpectSameBytes(stack.proc->mem(), small_src, small_dst, small);
  EXPECT_GE(stack.service->TotalStats().sync_promotions, 1u);
  ASSERT_TRUE(stack.lib->csync_all().ok());
  ExpectSameBytes(stack.proc->mem(), big_src, big_dst, big);
}

TEST(Dispatch, LargeTaskUsesBothUnits) {
  CopierStack stack;
  const size_t n = 256 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 5);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  const core::Engine::Stats stats = stack.service->TotalStats();
  EXPECT_GT(stats.dma_bytes_completed, 0u) << "i-piggyback should offload part to DMA";
  EXPECT_GT(stats.avx_bytes, 0u);
  EXPECT_EQ(stats.dma_bytes_completed + stats.avx_bytes, n);
  EXPECT_EQ(stats.dma_bytes_submitted, stats.dma_bytes_completed)
      << "after csync every submitted byte has landed";
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(Dispatch, EPiggybackFusesSmallAdjacentTasks) {
  CopierStack stack;
  const size_t n = 4 * kKiB;
  std::vector<std::pair<uint64_t, uint64_t>> copies;
  for (int i = 0; i < 6; ++i) {
    const uint64_t src = stack.Map(n);
    const uint64_t dst = stack.Map(n);
    FillPattern(stack.proc->mem(), src, n, 60 + i);
    copies.emplace_back(src, dst);
  }
  for (const auto& [src, dst] : copies) {
    stack.lib->amemcpy(dst, src, n);
  }
  stack.service->DrainAll();
  const core::Engine::Stats stats = stack.service->TotalStats();
  // Several 4 KiB tasks fused into rounds: DMA participated even though each
  // task is below the 12 KiB i-piggyback threshold.
  EXPECT_GT(stats.dma_bytes_completed, 0u);
  for (const auto& [src, dst] : copies) {
    ExpectSameBytes(stack.proc->mem(), src, dst, n);
  }
}

TEST(Dispatch, DmaDisabledUsesAvxOnly) {
  core::CopierConfig config;
  config.use_dma = false;
  CopierStack stack(config);
  const size_t n = 128 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 6);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  EXPECT_EQ(stack.service->TotalStats().dma_bytes_submitted, 0u);
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(Dispatch, FragmentedMemorySplitsSubtasks) {
  // Fragmented physical allocation breaks contiguity: copies still correct.
  CopierStack stack({}, simos::PhysicalMemory::AllocPolicy::kFragmented);
  const size_t n = 64 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 9);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
}

TEST(EngineStats, ServeCyclesLeaveOutTheJumpToSubmitTime) {
  // A task submitted far ahead of the engine clock makes the engine jump to
  // its submit time before accepting it. The jump is idle time, so
  // serve_cycles must stay below the clock advance by about that much.
  CopierStack stack;
  const size_t n = 4 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 13);
  constexpr Cycles kAhead = 10'000'000;
  ExecContext app;
  app.Charge(stack.service->engine_ctx().now() + kAhead);
  stack.lib->amemcpy(dst, src, n, &app);

  const Cycles before = stack.service->engine_ctx().now();
  const uint64_t serve_before = stack.service->TotalStats().serve_cycles;
  stack.service->Serve(*stack.client);
  const Cycles advance = stack.service->engine_ctx().now() - before;
  const uint64_t serve = stack.service->TotalStats().serve_cycles - serve_before;
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  ExpectSameBytes(stack.proc->mem(), src, dst, n);
  EXPECT_GE(advance, kAhead);
  EXPECT_GT(serve, 0u);
  EXPECT_LT(serve, advance - kAhead / 2) << "the jump to the submit time is idle, not serving";
}

TEST(ATCacheTest, HitsOnBufferReuse) {
  CopierStack stack;
  const size_t n = 16 * kKiB;
  const uint64_t src = stack.Map(n);
  const uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 4);
  for (int round = 0; round < 8; ++round) {
    stack.lib->amemcpy(dst, src, n);
    ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  }
  const auto& cache = stack.service->engine().atcache();
  EXPECT_GT(cache.hits(), cache.misses());
}

TEST(ATCacheTest, InvalidationOnUnmap) {
  CopierStack stack;
  stack.service->engine().atcache().Attach(stack.proc->mem());
  const size_t n = 8 * kKiB;
  const uint64_t src = stack.Map(n);
  uint64_t dst = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 4);
  stack.lib->amemcpy(dst, src, n);
  ASSERT_TRUE(stack.lib->csync(dst, n).ok());
  // Unmap dst; the stale translation must not be reused for a new mapping.
  ASSERT_TRUE(stack.proc->mem().Unmap(dst, n).ok());
  const uint64_t dst2 = stack.Map(n);
  FillPattern(stack.proc->mem(), src, n, 14);
  stack.lib->amemcpy(dst2, src, n);
  ASSERT_TRUE(stack.lib->csync(dst2, n).ok());
  ExpectSameBytes(stack.proc->mem(), src, dst2, n);
}

TEST(ATCacheTest, WarmRangeNeedsWritableEntries) {
  core::ATCache cache;
  uint8_t page[kPageSize];
  const uint64_t base = 0x10'0000;
  for (uint64_t va = base; va < base + 4 * kPageSize; va += kPageSize) {
    cache.Insert(7, va, page, /*writable=*/va != base + 3 * kPageSize);
  }
  EXPECT_FALSE(cache.MarkWarm(7, base, 4 * kPageSize));  // last page read-only
  EXPECT_FALSE(cache.MarkWarm(7, base, 5 * kPageSize));  // fifth page absent
  ASSERT_TRUE(cache.MarkWarm(7, base, 3 * kPageSize));
  EXPECT_TRUE(cache.IsWarm(7, base + 100, 2 * kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base, 4 * kPageSize));
  EXPECT_FALSE(cache.IsWarm(8, base, kPageSize));  // other address space
  // A read-only entry for a warm page takes that page out of the range.
  cache.Insert(7, base + kPageSize, page, /*writable=*/false);
  EXPECT_TRUE(cache.IsWarm(7, base, kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base, 2 * kPageSize));
  EXPECT_TRUE(cache.IsWarm(7, base + 2 * kPageSize, kPageSize));
}

TEST(ATCacheTest, WarmRangesCoalesceAndTrimOnOverlappingInvalidation) {
  core::ATCache cache;
  uint8_t page[kPageSize];
  const uint64_t base = 0x10'0000;
  for (uint64_t va = base; va < base + 8 * kPageSize; va += kPageSize) {
    cache.Insert(7, va, page, /*writable=*/true);
  }
  ASSERT_TRUE(cache.MarkWarm(7, base, 4 * kPageSize));
  ASSERT_TRUE(cache.MarkWarm(7, base + 4 * kPageSize, 4 * kPageSize));
  EXPECT_TRUE(cache.IsWarm(7, base, 8 * kPageSize));  // adjacent ranges merged
  // Invalidating a sub-page span of page 3 drops page 3 only.
  cache.Invalidate(7, base + 3 * kPageSize + 10, 20);
  EXPECT_TRUE(cache.IsWarm(7, base, 3 * kPageSize));
  EXPECT_TRUE(cache.IsWarm(7, base + 4 * kPageSize, 4 * kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base + 2 * kPageSize, 2 * kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base + 3 * kPageSize, kPageSize));
  // An invalidation spanning both pieces' edges trims each of them.
  cache.Invalidate(7, base + 2 * kPageSize, 3 * kPageSize);
  EXPECT_TRUE(cache.IsWarm(7, base, 2 * kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base + 2 * kPageSize, kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base + 4 * kPageSize, kPageSize));
  EXPECT_TRUE(cache.IsWarm(7, base + 5 * kPageSize, 3 * kPageSize));
}

TEST(ATCacheTest, WholeSpaceInvalidationDropsOnlyThatSpace) {
  core::ATCache cache;
  uint8_t page[kPageSize];
  const uint64_t base = 0x10'0000;
  for (uint32_t asid : {6u, 7u, 8u}) {
    cache.Insert(asid, base, page, /*writable=*/true);
    ASSERT_TRUE(cache.MarkWarm(asid, base, kPageSize));
  }
  cache.Invalidate(7, 0, SIZE_MAX);
  EXPECT_TRUE(cache.IsWarm(6, base, kPageSize));
  EXPECT_FALSE(cache.IsWarm(7, base, kPageSize));
  EXPECT_TRUE(cache.IsWarm(8, base, kPageSize));
  EXPECT_EQ(cache.Lookup(7, base), nullptr);
  EXPECT_NE(cache.Lookup(8, base), nullptr);
}

// Detach removes the space's invalidation listeners, so it must also drop the
// space's cached translations: a fork while unattached turns the pages CoW
// without telling the engines, and a copy after reattaching must not write
// through the old, now shared, frames into the child's memory.
TEST(ATCacheTest, DetachDropsTranslations) {
  constexpr size_t n = 64 * kKiB;
  CopierStack stack;
  simos::Process* peer = stack.kernel->CreateProcess("peer");
  core::Client* client = stack.service->AttachProcess(peer);
  auto src = peer->mem().MapAnonymous(n, "src", true);
  auto dst = peer->mem().MapAnonymous(n, "dst", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  FillPattern(peer->mem(), *src, n, 1);
  {
    lib::CopierLib lib(client, stack.service.get());
    lib.amemcpy(*dst, *src, n);
    ASSERT_TRUE(lib.csync(*dst, n).ok());
  }
  stack.service->DetachClient(*client);
  auto child = stack.kernel->Fork(*peer, nullptr);
  ASSERT_TRUE(child.ok());
  const std::vector<uint8_t> child_before = ReadAll((*child)->mem(), *dst, n);

  lib::CopierLib lib(stack.service->AttachProcess(peer), stack.service.get());
  FillPattern(peer->mem(), *src, n, 2);
  lib.amemcpy(*dst, *src, n);
  ASSERT_TRUE(lib.csync(*dst, n).ok());
  ExpectSameBytes(peer->mem(), *src, *dst, n);
  EXPECT_EQ(ReadAll((*child)->mem(), *dst, n), child_before);
}

TEST(Scheduler, CopyLengthFairnessAcrossClients) {
  // Two clients, equal shares: served bytes should balance even though one
  // submits much larger tasks.
  CopierStack stack;
  simos::Process* proc2 = stack.kernel->CreateProcess("p2");
  core::Client* client2 = stack.service->AttachProcess(proc2);
  lib::CopierLib lib2(client2, stack.service.get());

  const size_t small = 16 * kKiB;
  const size_t big = 64 * kKiB;
  auto src1 = stack.Map(small * 8);
  auto dst1 = stack.Map(small * 8);
  auto src2 = proc2->mem().MapAnonymous(big * 8, "s2", true);
  auto dst2 = proc2->mem().MapAnonymous(big * 8, "d2", true);
  ASSERT_TRUE(src2.ok() && dst2.ok());
  for (int i = 0; i < 8; ++i) {
    stack.lib->amemcpy(dst1 + i * small, src1 + i * small, small);
    lib2.amemcpy(*dst2 + i * big, *src2 + i * big, big);
  }
  // After the first few scheduling rounds, the lighter client must not be
  // starved: it should reach completion no later than the heavy one.
  uint64_t rounds_to_finish_small = 0;
  while (stack.client->HasQueuedWork()) {
    stack.service->RunOnce();
    ++rounds_to_finish_small;
    ASSERT_LT(rounds_to_finish_small, 1000u);
  }
  EXPECT_TRUE(client2->HasQueuedWork()) << "heavy client should still have work";
  stack.service->DrainAll();
  EXPECT_TRUE(stack.lib->csync_all().ok());
  EXPECT_TRUE(lib2.csync_all().ok());
}

TEST(CgroupTest, SharesBiasService) {
  core::CopierConfig cg_config;
  cg_config.copy_slice_bytes = 32 * kKiB;  // small slices: observe shares mid-flight
  CopierStack stack(cg_config);
  core::Cgroup* gold = stack.service->CreateCgroup("gold", 4096);
  core::Cgroup* bronze = stack.service->CreateCgroup("bronze", 256);

  simos::Process* pg = stack.kernel->CreateProcess("gold");
  simos::Process* pb = stack.kernel->CreateProcess("bronze");
  core::Client* cg = stack.service->AttachProcess(pg, gold);
  core::Client* cb = stack.service->AttachProcess(pb, bronze);
  lib::CopierLib lg(cg, stack.service.get());
  lib::CopierLib lb(cb, stack.service.get());

  const size_t n = 32 * kKiB;
  auto sg = pg->mem().MapAnonymous(n * 16, "sg", true);
  auto dg = pg->mem().MapAnonymous(n * 16, "dg", true);
  auto sb = pb->mem().MapAnonymous(n * 16, "sb", true);
  auto db = pb->mem().MapAnonymous(n * 16, "db", true);
  ASSERT_TRUE(sg.ok() && dg.ok() && sb.ok() && db.ok());
  for (int i = 0; i < 16; ++i) {
    lg.amemcpy(*dg + i * n, *sg + i * n, n);
    lb.amemcpy(*db + i * n, *sb + i * n, n);
  }
  // Run a limited number of scheduling rounds (while both cgroups still have
  // queued work); the gold cgroup must receive proportionally more service.
  for (int i = 0; i < 16; ++i) {
    stack.service->RunOnce();
  }
  EXPECT_TRUE(cg->HasQueuedWork() || cb->HasQueuedWork());
  EXPECT_GE(gold->total_bytes(), 2 * bronze->total_bytes());
  stack.service->DrainAll();
  EXPECT_TRUE(lg.csync_all().ok());
  EXPECT_TRUE(lb.csync_all().ok());
}

TEST(ThreadedService, RealThreadsServeCopies) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.min_threads = 1;
  options.config.max_threads = 2;
  core::CopierService service(std::move(options));
  service.Start();

  simos::Process* proc = kernel.CreateProcess("t");
  core::Client* client = service.AttachProcess(proc);
  lib::CopierLib lib(client, &service);

  const size_t n = 64 * kKiB;
  auto src = proc->mem().MapAnonymous(n, "s", true);
  auto dst = proc->mem().MapAnonymous(n, "d", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  for (int round = 0; round < 20; ++round) {
    FillPattern(proc->mem(), *src, n, 100 + round);
    lib.amemcpy(*dst, *src, n);
    ASSERT_TRUE(lib.csync(*dst, n).ok());
    ExpectSameBytes(proc->mem(), *src, *dst, n);
  }
  service.Stop();
}

TEST(ThreadedService, ScenarioDrivenPollingOnlyServesDuringScenario) {
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.poll_mode = core::CopierConfig::PollMode::kScenarioDriven;
  core::CopierService service(std::move(options));
  service.Start();

  simos::Process* proc = kernel.CreateProcess("t");
  core::Client* client = service.AttachProcess(proc);
  lib::CopierLib lib(client, &service);
  const size_t n = 8 * kKiB;
  auto src = proc->mem().MapAnonymous(n, "s", true);
  auto dst = proc->mem().MapAnonymous(n, "d", true);
  ASSERT_TRUE(src.ok() && dst.ok());
  FillPattern(proc->mem(), *src, n, 1);

  lib.amemcpy(*dst, *src, n);
  // Without an active scenario, threads are parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(client->HasQueuedWork());

  service.ScenarioBegin();
  ASSERT_TRUE(lib.csync(*dst, n).ok());
  ExpectSameBytes(proc->mem(), *src, *dst, n);
  service.ScenarioEnd();
  service.Stop();
}

TEST(Breakeven, TaskSubmissionCheaperThanKernelCopyAbove300B) {
  // §4.6: async pays off when copy time exceeds submit+csync cost.
  const auto& t = hw::TimingModel::Default();
  const Cycles async_overhead = t.task_submit_cycles + t.csync_check_cycles;
  EXPECT_GT(t.CpuCopyCycles(hw::CopyUnitKind::kErms, 512), async_overhead);
  EXPECT_LT(t.CpuCopyCycles(hw::CopyUnitKind::kErms, 64), async_overhead);
}

// A long completed-write log (DESIGN.md "Pending-range interval index"): a
// lazy head copy is held until its timeout while thousands of later copies —
// RAW chains, overwrites of the head's destination, lazy copies, aborts,
// promotes and UFUNC handlers — land behind it. Nothing retires or prunes
// past the held head, so every later write stays in the log and every later
// handler waits at the retirement frontier; then the head times out and
// executes after all of them. Some copies go through a second queue pair into
// a write-only window: pairs are ingested in turn, so an older copy there can
// execute after a newer one landed, and only the log's dead-write
// suppression keeps the newer bytes. Intermediate reads, the final image and
// the handler order must equal those of the same program run with memcpy.
TEST(LongCompletedWriteLog, LazyHeadHeldPastTimeoutMatchesMemcpy) {
  constexpr size_t kSrc = 256 * kKiB;   // read-only source pool
  constexpr size_t kWork = 512 * kKiB;  // shared working region
  constexpr size_t kWindow = 32 * kKiB;  // written from both queue pairs, never read
  constexpr size_t kHead = 64 * kKiB;
  constexpr size_t kHeld = 8 * kKiB;  // tail of the head's dst no later copy touches
  constexpr size_t kAborts = 8;
  constexpr size_t kAbortSlot = 16 * kKiB;
  constexpr size_t kOps = 4000;
  constexpr size_t kArena = kSrc + kWork + kWindow + kAborts * kAbortSlot;
  const auto overlaps = [](uint64_t a, size_t an, uint64_t b, size_t bn) {
    return a < b + bn && b < a + an;
  };
  for (const uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE(seed);
    core::CopierConfig config;
    config.lazy_timeout_cycles = Cycles{1} << 40;  // released explicitly below
    CopierStack stack(config);
    const uint64_t base = stack.Map(kArena, "arena");
    std::vector<uint8_t> model(kArena);
    Rng fill(seed);
    for (uint8_t& b : model) {
      b = static_cast<uint8_t>(fill.Next());
    }
    ASSERT_TRUE(stack.proc->mem().WriteBytes(base, model.data(), kArena).ok());
    const auto first_mismatch = [&] {
      const std::vector<uint8_t> image = ReadAll(stack.proc->mem(), base, kArena);
      return static_cast<size_t>(
          std::mismatch(image.begin(), image.end(), model.begin()).first - image.begin());
    };
    const auto copy = [&](uint64_t dst, uint64_t src, size_t n, lib::AmemcpyOptions opts,
                          bool lands) {
      EXPECT_NE(stack.lib->_amemcpy(base + dst, base + src, n, opts), nullptr);
      if (lands) {
        std::memmove(model.data() + dst, model.data() + src, n);
      }
    };
    lib::AmemcpyOptions lazy;
    lazy.lazy = true;
    const int second_pair = stack.lib->create_queue();
    const uint64_t window = kSrc + kWork;

    const uint64_t work = kSrc;
    const uint64_t held = work + kHead - kHeld;
    copy(work, 0, kHead, lazy, /*lands=*/true);  // the held head

    Rng rng(seed * 7919);
    std::vector<std::pair<uint64_t, size_t>> recent;  // RAW-chain feeders
    std::vector<uint64_t> handler_order;
    uint64_t handlers = 0;
    size_t aborts = 0;
    for (size_t i = 0; i < kOps; ++i) {
      if (i % (kOps / kAborts) == kOps / kAborts - 1) {
        // Abort victim: a lazy copy into its own slot, discarded while queued.
        const uint64_t slot = window + kWindow + aborts++ * kAbortSlot;
        copy(slot, rng.Below(kSrc - kAbortSlot), kAbortSlot, lazy, /*lands=*/false);
        stack.lib->abort_range(base + slot, kAbortSlot);
        continue;
      }
      size_t n = size_t{256} << rng.Below(6);  // 256 B .. 8 KiB
      if (i % 8 == 2 || i % 8 == 6) {
        // Write-only window, alternately from each queue pair.
        lib::AmemcpyOptions opts;
        opts.fd = i % 8 == 6 ? second_pair : 0;
        copy(window + rng.Below(kWindow - n), rng.Below(kSrc - n), n, opts, /*lands=*/true);
        continue;
      }
      uint64_t src = 0;
      if (i % 8 == 3 && !recent.empty()) {
        const auto& [feeder, feeder_len] = recent[rng.Below(recent.size())];
        src = feeder;
        n = std::min(n, feeder_len);
      } else {
        src = rng.Below(kSrc - n);
      }
      uint64_t dst = 0;
      do {
        dst = work + rng.Below(kWork - n) / 64 * 64;
      } while (overlaps(dst, n, held, kHeld) || overlaps(dst, n, src, n));
      lib::AmemcpyOptions opts;
      opts.lazy = i % 32 == 7;
      if (i % 16 == 5) {
        const uint64_t id = handlers++;
        opts.ufunc = [&handler_order, id](Cycles) { handler_order.push_back(id); };
      }
      copy(dst, src, n, opts, /*lands=*/true);
      recent.emplace_back(dst, n);
      if (recent.size() > 8) {
        recent.erase(recent.begin());
      }
      if (i % 64 == 63) {
        stack.service->Serve(*stack.client, 64 * kKiB);
      }
      const auto [pdst, plen] = recent[rng.Below(recent.size())];
      if (i % 256 == 255 && !overlaps(pdst, plen, work, kHead)) {
        // Promote a recent destination out of order and read it back. (A
        // promotion touching the head's destination would promote the whole
        // lazy head.)
        ASSERT_TRUE(stack.lib->csync(base + pdst, plen).ok());
        ASSERT_TRUE(std::equal(model.begin() + pdst, model.begin() + pdst + plen,
                               ReadAll(stack.proc->mem(), base + pdst, plen).begin()))
            << "op " << i << " read [" << pdst << ", +" << plen << ")";
      }
    }
    stack.service->Serve(*stack.client);
    stack.lib->post_handlers();

    // The scenario held: the head is the retirement frontier, still unlanded,
    // every later write is logged, and no later handler has run.
    const core::PendingTask* frontier = stack.client->frontier();
    ASSERT_NE(frontier, nullptr);
    EXPECT_EQ(frontier->order, 0u);
    EXPECT_FALSE(frontier->Done());
    EXPECT_GT(stack.client->completed_writes.size(), kOps / 2);
    EXPECT_TRUE(handler_order.empty());

    // Past the timeout the head runs in the FIFO pass, behind every newer write.
    stack.service->engine_ctx().WaitUntil(config.lazy_timeout_cycles + 1);
    stack.service->DrainAll();
    ASSERT_TRUE(stack.lib->csync_all().ok());
    stack.lib->post_handlers();

    EXPECT_EQ(first_mismatch(), kArena);
    std::vector<uint64_t> submission_order(handlers);
    std::iota(submission_order.begin(), submission_order.end(), 0);
    EXPECT_EQ(handler_order, submission_order);
    EXPECT_EQ(stack.service->TotalStats().tasks_aborted, kAborts);
    EXPECT_TRUE(stack.client->pending.empty());
    EXPECT_TRUE(stack.client->completed_writes.empty());
  }
}


// Randomized raw-queue workload: page-aligned and unaligned copies,
// overlapping work->work chains, lib copies that csync promotes out of order,
// copies aborted mid-flight, and writes after completion to both the
// promoted destinations and the source pool. The final image and the KFUNC
// order must equal an in-order memmove replay of the same stream; an aborted
// copy's bytes may land partially, so each of its destination bytes must hold
// either the old value or the copied one.
constexpr size_t kDiffSrcPool = 64 * kKiB;
constexpr size_t kDiffWork = 64 * kKiB;
constexpr size_t kDiffAbortSlot = 2 * kPageSize;
constexpr size_t kDiffAbortSlots = 16;
constexpr size_t kDiffArena = kDiffSrcPool + kDiffWork + kDiffAbortSlots * kDiffAbortSlot;

class MemcpyDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemcpyDifferential, ChainsAbortsAndPromotionsMatchInOrderReplay) {
  const uint64_t seed = GetParam();
  CopierStack stack;
  const uint64_t arena = stack.Map(kDiffArena, "arena");
  std::vector<uint8_t> model = PatternBytes(kDiffArena, seed);
  ASSERT_TRUE(stack.proc->mem().WriteBytes(arena, model.data(), kDiffArena).ok());
  // Per abort-slot byte, the value the aborted copy would have written.
  std::vector<uint8_t> abort_landed(model.begin() + kDiffSrcPool + kDiffWork, model.end());
  // Source ranges read by copies submitted since the last full settle: a
  // write overlapping one of them could race a copy that has not read yet.
  std::vector<std::pair<size_t, size_t>> unsettled_reads;
  const auto write = [&](size_t off, size_t len, uint64_t pattern_seed) {
    const std::vector<uint8_t> bytes = PatternBytes(len, pattern_seed);
    ASSERT_TRUE(stack.proc->mem().WriteBytes(arena + off, bytes.data(), len).ok());
    std::copy(bytes.begin(), bytes.end(), model.begin() + off);
  };

  std::vector<int> kfunc_log;
  Rng rng(seed * 7919 + 3);
  int next_id = 0;
  size_t abort_slot = 0;
  size_t promoted_writes = 0;
  const auto push_copy = [&](size_t dst_off, size_t src_off, size_t len) {
    core::CopyQueueEntry entry;
    entry.task.dst = core::MemRef::User(stack.client->space(), arena + dst_off);
    entry.task.src = core::MemRef::User(stack.client->space(), arena + src_off);
    entry.task.length = len;
    const int id = next_id++;
    entry.task.handler =
        core::PostHandler::KernelFunc([&kfunc_log, id](Cycles) { kfunc_log.push_back(id); });
    EXPECT_TRUE(stack.client->default_pair().user.copy_q.TryPush(std::move(entry)));
    unsettled_reads.emplace_back(src_off, len);
  };

  for (int batch = 0; batch < 14; ++batch) {
    // Copies into the work region: mostly page-aligned, some unaligned, some
    // chained work->work.
    for (int i = 0; i < 3; ++i) {
      size_t len;
      size_t dst_off;
      size_t src_off;
      if (!rng.OneIn(3)) {
        len = kPageSize * (1 + rng.Below(8));
        dst_off = kDiffSrcPool + AlignDown(rng.Below(kDiffWork - len), kPageSize);
        src_off = rng.OneIn(4) ? kDiffSrcPool + AlignDown(rng.Below(kDiffWork - len), kPageSize)
                               : AlignDown(rng.Below(kDiffSrcPool - len), kPageSize);
      } else {
        len = 200 + rng.Below(6 * kKiB);
        dst_off = kDiffSrcPool + rng.Below(kDiffWork - len);
        src_off = rng.Below(kDiffSrcPool - len);
      }
      if (RangesOverlap(dst_off, len, src_off, len)) {
        continue;
      }
      push_copy(dst_off, src_off, len);
      std::memmove(model.data() + dst_off, model.data() + src_off, len);
    }
    // A lib-registered submission rides along so the csync below has a real
    // producing copy to find and promote.
    if (rng.OneIn(2)) {
      const size_t len = kPageSize * (1 + rng.Below(4));
      const size_t dst_off = kDiffSrcPool + AlignDown(rng.Below(kDiffWork - len), kPageSize);
      const size_t src_off = AlignDown(rng.Below(kDiffSrcPool - len), kPageSize);
      stack.lib->amemcpy(arena + dst_off, arena + src_off, len);
      unsettled_reads.emplace_back(src_off, len);
      std::memmove(model.data() + dst_off, model.data() + src_off, len);
    }
    // Occasional copy into a fresh abort slot, aborted mid-flight below.
    uint64_t abort_addr = 0;
    if (rng.OneIn(2) && abort_slot < kDiffAbortSlots) {
      const size_t slot_off = kDiffSrcPool + kDiffWork + abort_slot * kDiffAbortSlot;
      const size_t src_off = AlignDown(rng.Below(kDiffSrcPool - kDiffAbortSlot), kPageSize);
      std::copy_n(model.begin() + src_off, kDiffAbortSlot,
                  abort_landed.begin() + abort_slot * kDiffAbortSlot);
      ++abort_slot;
      abort_addr = arena + slot_off;
      push_copy(slot_off, src_off, kDiffAbortSlot);
    }
    // Ingest with zero-budget serves so aborts see their victims pending.
    while (!stack.client->default_pair().user.copy_q.Empty()) {
      stack.service->Serve(*stack.client, 0);
    }
    if (abort_addr != 0) {
      core::SyncTask sync;
      sync.kind = core::SyncTask::Kind::kAbort;
      sync.addr = core::MemRef::User(stack.client->space(), abort_addr);
      sync.length = kDiffAbortSlot;
      EXPECT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(sync)));
    }
    // Partial execution pumps.
    const size_t pumps = rng.Below(3);
    for (size_t p = 0; p < pumps; ++p) {
      stack.service->Serve(*stack.client, 8 * kKiB);
    }
    // Sync promotion of a random work subrange, then a write to the promoted
    // destination — unless a pending copy may still read those bytes. csync
    // waits only for lib-registered copies; the raw copies producing the
    // range are promoted by a kPromote sync task.
    if (rng.OneIn(2)) {
      const size_t len = kPageSize * (1 + rng.Below(4));
      const size_t off = kDiffSrcPool + AlignDown(rng.Below(kDiffWork - len), kPageSize);
      EXPECT_TRUE(stack.lib->csync(arena + off, len).ok());
      core::SyncTask promote;
      promote.addr = core::MemRef::User(stack.client->space(), arena + off);
      promote.length = len;
      EXPECT_TRUE(stack.client->default_pair().user.sync_q.TryPush(std::move(promote)));
      stack.service->Serve(*stack.client, 0);
      ASSERT_TRUE(std::equal(model.begin() + off, model.begin() + off + len,
                             ReadAll(stack.proc->mem(), arena + off, len).begin()))
          << "batch " << batch << " read after csync";
      const bool read_pending =
          std::any_of(unsettled_reads.begin(), unsettled_reads.end(), [&](const auto& r) {
            return RangesOverlap(r.first, r.second, off, kPageSize);
          });
      if (rng.OneIn(2) && !read_pending) {
        write(off, kPageSize, seed * 131 + batch);
        ++promoted_writes;
      }
    }
    // Periodically settle everything and dirty the source pool; the landed
    // copies must keep their bytes.
    if (rng.OneIn(3)) {
      EXPECT_TRUE(stack.lib->csync_all().ok());
      stack.service->DrainAll();
      unsettled_reads.clear();
      write(AlignDown(rng.Below(kDiffSrcPool - kPageSize), kPageSize), kPageSize,
            seed * 31 + batch);
    }
  }
  EXPECT_TRUE(stack.lib->csync_all().ok());
  stack.service->DrainAll();

  const std::vector<uint8_t> image = ReadAll(stack.proc->mem(), arena, kDiffArena);
  const size_t slots = kDiffSrcPool + kDiffWork;
  EXPECT_TRUE(std::equal(image.begin(), image.begin() + slots, model.begin()));
  for (size_t i = 0; i < abort_slot * kDiffAbortSlot; ++i) {
    ASSERT_TRUE(image[slots + i] == model[slots + i] || image[slots + i] == abort_landed[i])
        << "abort slot " << i / kDiffAbortSlot << " byte " << i % kDiffAbortSlot;
  }
  EXPECT_TRUE(std::equal(image.begin() + slots + abort_slot * kDiffAbortSlot, image.end(),
                         model.begin() + slots + abort_slot * kDiffAbortSlot));
  std::vector<int> submission_order(next_id);
  std::iota(submission_order.begin(), submission_order.end(), 0);
  EXPECT_EQ(kfunc_log, submission_order);
  const core::Engine::Stats stats = stack.service->TotalStats();
  EXPECT_GT(stats.tasks_aborted, 0u) << "workload must abort a copy";
  EXPECT_GT(stats.sync_promotions, 0u) << "workload must promote a copy";
  EXPECT_GT(promoted_writes, 0u) << "workload must write a promoted destination";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemcpyDifferential, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace copier::test
