// Concurrency stress: threaded Copier service vs app threads issuing
// overlapping copies with partial csyncs. This harness found two production
// bugs during development:
//   * tasks sharing a client descriptor at unaligned offsets starved forever
//     (fixed by private per-task progress descriptors), and
//   * an earlier task executing after a *newer overlapping task had completed
//     and retired* overwrote the newer data with stale bytes (fixed by the
//     completed-writes WAW log consulted by dead-write suppression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "tests/test_util.h"

namespace copier::test {
namespace {

struct StressParam {
  int max_threads;
  bool concurrent_workers;
  bool use_dma;
};

class ThreadedStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(ThreadedStress, OverlappingCopiesStayRefined) {
  const StressParam& p = GetParam();
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.max_threads = static_cast<size_t>(p.max_threads);
  options.config.min_threads = static_cast<size_t>(p.max_threads);
  options.config.use_dma = p.use_dma;
  core::CopierService service(std::move(options));
  service.Start();
  simos::Process* proc = kernel.CreateProcess("stress");
  core::Client* client = service.AttachProcess(proc);
  lib::CopierLib lib(client, &service);

  const size_t half = 64 * kKiB;
  auto arena = proc->mem().MapAnonymous(2 * half, "arena", true);
  ASSERT_TRUE(arena.ok());

  std::atomic<int> failures{0};
  auto worker = [&](int index) {
    Rng rng(4242 + index * 31);
    const uint64_t base = *arena + index * half;
    std::vector<uint8_t> reference(half, 0);
    for (int i = 0; i < 250 && failures.load() == 0; ++i) {
      const size_t len = 64 + rng.Below(8 * kKiB);
      const size_t dst = rng.Below(half - len);
      const size_t src = rng.Below(half - len);
      if (RangesOverlap(dst, len, src, len)) {
        continue;
      }
      lib.amemcpy(base + dst, base + src, len);
      std::memcpy(reference.data() + dst, reference.data() + src, len);
      if (rng.OneIn(3)) {
        ASSERT_TRUE(lib.csync(base + dst, len).ok());
        std::vector<uint8_t> bytes(len);
        ASSERT_TRUE(proc->mem().ReadBytes(base + dst, bytes.data(), len).ok());
        if (std::memcmp(bytes.data(), reference.data() + dst, len) != 0) {
          failures.fetch_add(1);
        }
      }
      if (rng.OneIn(5)) {
        const size_t wlen = 1 + rng.Below(2 * kKiB);
        const size_t woff = rng.Below(half - wlen);
        ASSERT_TRUE(lib.csync_all().ok());
        std::vector<uint8_t> bytes(wlen);
        for (auto& b : bytes) {
          b = static_cast<uint8_t>(rng.Next());
        }
        ASSERT_TRUE(proc->mem().WriteBytes(base + woff, bytes.data(), wlen).ok());
        std::memcpy(reference.data() + woff, bytes.data(), wlen);
      }
    }
    ASSERT_TRUE(lib.csync_all().ok());
    std::vector<uint8_t> final_bytes(half);
    ASSERT_TRUE(proc->mem().ReadBytes(base, final_bytes.data(), half).ok());
    if (std::memcmp(final_bytes.data(), reference.data(), half) != 0) {
      failures.fetch_add(1);
    }
  };

  if (p.concurrent_workers) {
    std::thread t0(worker, 0);
    std::thread t1(worker, 1);
    t0.join();
    t1.join();
  } else {
    worker(0);
    worker(1);
  }
  service.Stop();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreadedStress,
    ::testing::Values(StressParam{1, false, true}, StressParam{1, true, true},
                      StressParam{2, true, true}, StressParam{2, true, false}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      const StressParam& p = info.param;
      return "svc" + std::to_string(p.max_threads) +
             (p.concurrent_workers ? "_par" : "_seq") + (p.use_dma ? "_dma" : "_cpu");
    });

// --- deep-queue stress ------------------------------------------------------
//
// Thousands of outstanding tasks with overlapping ranges, aborts arriving
// mid-stream, and retirement churn across submission waves. Exercises the
// pending-range interval index at the queue depths bench_queue_depth
// measures, asserting the engine refines the in-order execution.

struct DeepQueueResult {
  std::vector<uint8_t> bytes;      // final arena contents
  std::vector<uint8_t> reference;  // in-order model of the same submissions
  size_t max_depth = 0;
  uint64_t dep_probes = 0;
};

DeepQueueResult RunDeepQueueScenario() {
  // Arena layout: S (source pool, never written), W (working region with
  // overlapping copy chains), X (abort scratch: each slot written by exactly
  // one task that is aborted before executing, so it must keep its initial
  // bytes — and is never read, so aborts apply immediately).
  const size_t kS = 256 * kKiB;
  const size_t kW = 256 * kKiB;
  const size_t kSlot = kKiB;
  const size_t kSlots = 256;
  const size_t kTotal = kS + kW + kSlots * kSlot;

  CopierStack stack;
  const uint64_t arena = stack.Map(kTotal, "deep");
  FillPattern(stack.proc->mem(), arena, kTotal, 77);

  DeepQueueResult result;
  result.reference = ReadAll(stack.proc->mem(), arena, kTotal);
  Rng rng(20260807);
  size_t abort_slot = 0;
  // Wave 0 establishes >=1024 outstanding tasks; later waves churn the queue
  // (retirement of old tasks interleaved with fresh submissions and aborts).
  const size_t kWaves[] = {1400, 160, 160};
  for (size_t wave = 0; wave < 3; ++wave) {
    std::vector<std::pair<uint64_t, size_t>> abort_now;
    for (size_t i = 0; i < kWaves[wave]; ++i) {
      if (i % 8 == 7 && abort_slot < kSlots) {
        const uint64_t dst = arena + kS + kW + abort_slot * kSlot;
        const uint64_t src = arena + rng.Below(kS - kSlot);
        ++abort_slot;
        stack.lib->amemcpy(dst, src, kSlot);
        abort_now.emplace_back(dst, kSlot);
        continue;  // aborted before execution: no reference effect
      }
      const size_t len = 257 + rng.Below(4 * kKiB - 257);
      size_t dst_off;
      size_t src_off;
      do {
        dst_off = kS + rng.Below(kW - len);
        src_off = rng.OneIn(3) ? rng.Below(kS - len) : kS + rng.Below(kW - len);
      } while (RangesOverlap(dst_off, len, src_off, len));
      stack.lib->amemcpy(arena + dst_off, arena + src_off, len);
      std::memcpy(result.reference.data() + dst_off, result.reference.data() + src_off, len);
    }
    // Ingest the whole wave (ingestion is capped per poll) with zero-budget
    // serves so the aborts below see every victim as a pending task.
    while (!stack.client->default_pair().user.copy_q.Empty()) {
      stack.service->Serve(*stack.client, 0);
    }
    // Queue the aborts directly: lib.abort_range() in manual mode pumps the
    // whole engine, which would drain the deep queue we are trying to keep.
    for (const auto& [addr, len] : abort_now) {
      core::SyncTask sync;
      sync.kind = core::SyncTask::Kind::kAbort;
      sync.addr = core::MemRef::User(stack.client->space(), addr);
      sync.length = len;
      stack.client->default_pair().user.sync_q.TryPush(std::move(sync));
    }
    // Partially drain with a small budget: ingestion and the aborts happen on
    // the first Serve; the queue stays deep across waves.
    const size_t serves = wave == 0 ? 4 : 2;
    for (size_t s = 0; s < serves; ++s) {
      stack.service->Serve(*stack.client, 48 * kKiB);
      result.max_depth = std::max(result.max_depth, stack.client->pending.size());
    }
  }
  EXPECT_TRUE(stack.lib->csync_all().ok());
  stack.service->DrainAll();
  EXPECT_TRUE(stack.client->pending.empty());
  EXPECT_EQ(stack.client->range_index.size(), 0u);
  result.bytes = ReadAll(stack.proc->mem(), arena, kTotal);
  result.dep_probes = stack.service->TotalStats().dep_probes;
  return result;
}

TEST(DeepQueueStress, IndexedModeMatchesInOrderReferenceAtDepth1024) {
  const DeepQueueResult indexed = RunDeepQueueScenario();
  EXPECT_GE(indexed.max_depth, 1024u);
  EXPECT_GT(indexed.dep_probes, 0u);
  ASSERT_EQ(indexed.bytes, indexed.reference);
}

}  // namespace
}  // namespace copier::test
