// Unit tests for src/common/: ring buffer (incl. MPSC concurrency), bitmap,
// histogram, alignment helpers, RNG determinism, clocks.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "src/common/align.h"
#include "src/common/bitmap.h"
#include "src/common/cycle_clock.h"
#include "src/common/exec_context.h"
#include "src/common/histogram.h"
#include "src/common/ring_buffer.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace copier {
namespace {

TEST(Align, Basics) {
  EXPECT_EQ(AlignUp(1, 4096), 4096u);
  EXPECT_EQ(AlignUp(4096, 4096), 4096u);
  EXPECT_EQ(AlignDown(4097, 4096), 4096u);
  EXPECT_TRUE(IsAligned(8192, 4096));
  EXPECT_FALSE(IsAligned(8193, 4096));
  EXPECT_EQ(PagesSpanned(0, 1), 1u);
  EXPECT_EQ(PagesSpanned(4095, 2), 2u);
  EXPECT_EQ(PagesSpanned(0, 0), 0u);
}

TEST(Align, RangesOverlap) {
  EXPECT_TRUE(RangesOverlap(0, 10, 5, 10));
  EXPECT_FALSE(RangesOverlap(0, 10, 10, 10));  // half-open adjacency
  EXPECT_FALSE(RangesOverlap(0, 0, 0, 10));    // empty range
  EXPECT_TRUE(RangesOverlap(5, 1, 0, 10));
}

TEST(Status, RoundTrip) {
  Status ok = OkStatus();
  EXPECT_TRUE(ok.ok());
  Status bad = InvalidArgument("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("nope"), std::string::npos);

  StatusOr<int> value(42);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> err(NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(AtomicBitmap, SetTestRanges) {
  AtomicBitmap bits(200);
  EXPECT_TRUE(bits.NoneSet());
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_FALSE(bits.Test(65));
  EXPECT_FALSE(bits.AllSetInRange(0, 64));
  for (size_t i = 0; i < 200; ++i) {
    bits.Set(i);
  }
  EXPECT_TRUE(bits.AllSet());
  EXPECT_EQ(bits.CountSet(), 200u);
  bits.Reset(100);
  EXPECT_FALSE(bits.AllSetInRange(99, 101));
  EXPECT_TRUE(bits.AllSetInRange(0, 99));
}

TEST(AtomicBitmap, WordBoundaryRanges) {
  AtomicBitmap bits(256);
  for (size_t i = 60; i < 70; ++i) {
    bits.Set(i);
  }
  EXPECT_TRUE(bits.AllSetInRange(60, 69));
  EXPECT_FALSE(bits.AllSetInRange(59, 69));
  EXPECT_FALSE(bits.AllSetInRange(60, 70));
}

// SetRange must set exactly [first, last] at word edges (bits 0/63/64/127) and
// for single bits, as the per-bit Set loop it replaces did.
TEST(AtomicBitmap, SetRangeMatchesPerBitSet) {
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 0},   {63, 63}, {64, 64},  {127, 127}, {0, 63},  {0, 64},  {63, 64},
      {64, 127}, {63, 128}, {1, 126}, {0, 191},   {70, 70}, {5, 130}, {128, 191}};
  for (const auto& [first, last] : ranges) {
    AtomicBitmap range(192);
    AtomicBitmap single(192);
    range.SetRange(first, last);
    for (size_t bit = first; bit <= last; ++bit) {
      single.Set(bit);
    }
    for (size_t bit = 0; bit < 192; ++bit) {
      EXPECT_EQ(range.Test(bit), single.Test(bit)) << first << ".." << last << " bit " << bit;
    }
    EXPECT_EQ(range.CountSet(), last - first + 1);
    EXPECT_TRUE(range.AllSetInRange(first, last));
  }
}

TEST(MpscRingBuffer, FifoSingleThread) {
  MpscRingBuffer<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(MpscRingBuffer, PeekContiguousPrefix) {
  MpscRingBuffer<int> ring(8);
  EXPECT_EQ(ring.Peek(), nullptr);
  ring.TryPush(1);
  ring.TryPush(2);
  ASSERT_NE(ring.Peek(), nullptr);
  EXPECT_EQ(*ring.Peek(), 1);
  EXPECT_EQ(*ring.Peek(1), 2);
  EXPECT_EQ(ring.Peek(2), nullptr);
}

TEST(MpscRingBuffer, HeadPositionCountsAcquires) {
  MpscRingBuffer<int> ring(8);
  EXPECT_EQ(ring.HeadPosition(), 0u);
  ring.TryPush(1);
  ring.TryPush(2);
  EXPECT_EQ(ring.HeadPosition(), 2u);
  ring.TryPop();
  EXPECT_EQ(ring.HeadPosition(), 2u);
  EXPECT_EQ(ring.TailPosition(), 1u);
}

TEST(MpscRingBuffer, ConcurrentProducersPreserveAllItems) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscRingBuffer<uint64_t> ring(1024);
  std::atomic<bool> done{false};
  std::vector<uint64_t> seen;
  std::thread consumer([&] {
    while (!done.load() || !ring.Empty()) {
      if (auto v = ring.TryPop()) {
        seen.push_back(*v);
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t value = (static_cast<uint64_t>(p) << 32) | static_cast<uint32_t>(i);
        while (!ring.TryPush(value)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  done.store(true);
  consumer.join();

  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Per-producer order must be preserved (acquire order = task order, §5.1.1).
  std::vector<int> next(kProducers, 0);
  for (uint64_t value : seen) {
    const int p = static_cast<int>(value >> 32);
    const int i = static_cast<int>(value & 0xffffffff);
    EXPECT_EQ(i, next[p]);
    next[p] = i + 1;
  }
}

TEST(MpscRingBuffer, BatchReserveFillCommitPopsInOrder) {
  MpscRingBuffer<int> ring(8);
  ring.TryPush(1);
  MpscRingBuffer<int>::Batch batch;
  ASSERT_TRUE(ring.TryReserveBatch(3, &batch));
  EXPECT_EQ(batch.size(), 3u);
  batch[0] = 2;
  batch[1] = 3;
  batch[2] = 4;
  // Unpublished slots stall the consumer at the batch boundary; the earlier
  // per-op push is still consumable.
  EXPECT_EQ(*ring.TryPop(), 1);
  EXPECT_FALSE(ring.TryPop().has_value());
  batch.Commit();
  for (int want = 2; want <= 4; ++want) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, want);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(MpscRingBuffer, BatchWrapsAroundRing) {
  MpscRingBuffer<int> ring(4);
  // Advance head/tail so a batch straddles the physical end of the ring.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_TRUE(ring.TryPop().has_value());
  }
  MpscRingBuffer<int>::Batch batch;
  ASSERT_TRUE(ring.TryReserveBatch(4, &batch));
  for (int i = 0; i < 4; ++i) {
    batch[i] = 100 + i;
  }
  batch.Commit();
  for (int i = 0; i < 4; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 100 + i);
  }
}

TEST(MpscRingBuffer, BatchReserveIsAllOrNothing) {
  MpscRingBuffer<int> ring(4);
  ASSERT_TRUE(ring.TryPush(7));
  MpscRingBuffer<int>::Batch batch;
  // 4 slots requested, 3 free: nothing is acquired and the ring is intact.
  EXPECT_FALSE(ring.TryReserveBatch(4, &batch));
  EXPECT_EQ(ring.SizeApprox(), 1u);
  EXPECT_FALSE(ring.TryReserveBatch(0, &batch));
  EXPECT_FALSE(ring.TryReserveBatch(5, &batch));  // larger than capacity
  ASSERT_TRUE(ring.TryReserveBatch(3, &batch));   // exact remaining room
  batch[0] = 8;
  batch[1] = 9;
  batch[2] = 10;
  batch.Commit();
  EXPECT_FALSE(ring.TryPush(11));  // full
  for (int want = 7; want <= 10; ++want) {
    EXPECT_EQ(*ring.TryPop(), want);
  }
}

TEST(MpscRingBuffer, ConcurrentBatchProducersKeepBatchesContiguous) {
  constexpr int kProducers = 4;
  constexpr int kBatches = 800;
  constexpr int kBatchLen = 3;
  MpscRingBuffer<uint64_t> ring(64);
  std::atomic<bool> done{false};
  std::vector<uint64_t> seen;
  std::thread consumer([&] {
    while (!done.load() || !ring.Empty()) {
      if (auto v = ring.TryPop()) {
        seen.push_back(*v);
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int b = 0; b < kBatches; ++b) {
        MpscRingBuffer<uint64_t>::Batch batch;
        while (!ring.TryReserveBatch(kBatchLen, &batch)) {
          std::this_thread::yield();
        }
        for (int i = 0; i < kBatchLen; ++i) {
          batch[i] = (static_cast<uint64_t>(p) << 32) |
                     static_cast<uint32_t>(b * kBatchLen + i);
        }
        batch.Commit();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  done.store(true);
  consumer.join();

  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kBatches * kBatchLen));
  // Batches are contiguous (a single reservation owns adjacent slots) and
  // per-producer batch order follows reservation order.
  std::vector<int> next(kProducers, 0);
  for (size_t s = 0; s < seen.size(); ++s) {
    const int p = static_cast<int>(seen[s] >> 32);
    const int i = static_cast<int>(seen[s] & 0xffffffff);
    EXPECT_EQ(i, next[p]) << "at slot " << s;
    next[p] = i + 1;
    if (i % kBatchLen != kBatchLen - 1) {
      // Not the batch's last element: the next slot must continue this batch.
      ASSERT_LT(s + 1, seen.size());
      EXPECT_EQ(seen[s + 1], seen[s] + 1) << "batch split at slot " << s;
    }
  }
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.01);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
}

TEST(Histogram, RunningStatMatches) {
  Histogram h;
  RunningStat rs;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(rng.Below(1000));
    h.Add(v);
    rs.Add(v);
  }
  EXPECT_NEAR(h.Mean(), rs.Mean(), 1e-9);
  EXPECT_NEAR(h.Stddev(), rs.Stddev(), 1e-6);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.Below(17), 17u);
    const uint64_t r = a.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    const double d = a.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(VirtualClock, AdvanceSemantics) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(100);
  clock.AdvanceTo(50);  // no-op backwards
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.Now(), 200u);
}

TEST(ExecContext, ChargeAndBlockedAccounting) {
  ExecContext ctx("test");
  ctx.Charge(100);
  EXPECT_EQ(ctx.now(), 100u);
  ctx.WaitUntil(50);  // past: no-op
  EXPECT_EQ(ctx.blocked_cycles(), 0u);
  ctx.WaitUntil(250);
  EXPECT_EQ(ctx.now(), 250u);
  EXPECT_EQ(ctx.blocked_cycles(), 150u);
}

TEST(RealCycleClock, MonotoneAndCalibrated) {
  const Cycles a = RealCycleClock::ReadTsc();
  const Cycles b = RealCycleClock::ReadTsc();
  EXPECT_GE(b, a);
  EXPECT_GT(RealCycleClock::FrequencyHz(), 1e6);
}

}  // namespace
}  // namespace copier
