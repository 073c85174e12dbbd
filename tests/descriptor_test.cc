// Unit tests for Descriptor (segment bitmaps) and task/MemRef vocabulary.
#include "src/core/descriptor.h"

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/task.h"

namespace copier::core {
namespace {

TEST(Descriptor, SegmentsAndRanges) {
  Descriptor d(10000, 4096);  // 3 segments
  EXPECT_EQ(d.num_segments(), 3u);
  EXPECT_FALSE(d.RangeReady(0, 1));
  d.MarkRange(0, 4096, 100);
  EXPECT_TRUE(d.RangeReady(0, 4096));
  EXPECT_FALSE(d.RangeReady(0, 4097));
  EXPECT_EQ(d.ReadyTime(0, 4096), 100u);
  d.MarkRange(4096, 10000 - 4096, 250);
  EXPECT_TRUE(d.AllReady());
  EXPECT_EQ(d.ReadyTime(0, 10000), 250u);
}

TEST(Descriptor, ZeroLengthRangeAlwaysReady) {
  Descriptor d(8192);
  EXPECT_TRUE(d.RangeReady(0, 0));
  EXPECT_TRUE(d.RangeReady(4096, 0));
}

TEST(Descriptor, ResetReusesCapacity) {
  Descriptor d(16 * 4096);
  d.MarkRange(0, 16 * 4096, 1);
  EXPECT_TRUE(d.AllReady());
  d.Reset(3 * 4096);
  EXPECT_EQ(d.num_segments(), 3u);
  EXPECT_FALSE(d.RangeReady(0, 1));
  EXPECT_FALSE(d.failed());
}

TEST(DescriptorDeathTest, ResetBeyondCapacityChecks) {
  Descriptor d(4096);
  EXPECT_DEATH(d.Reset(64 * 4096), "Reset beyond descriptor capacity");
}

TEST(Descriptor, FailedWakesWaiters) {
  Descriptor d(8192);
  d.MarkFailed(42);
  EXPECT_TRUE(d.AllReady());  // bits set so spinners wake
  EXPECT_TRUE(d.failed());    // ...and observe the error
}

TEST(Descriptor, PartialSegmentAtTail) {
  Descriptor d(4097, 4096);  // 2 segments, second covers 1 byte
  d.MarkRange(4096, 1, 7);
  EXPECT_TRUE(d.RangeReady(4096, 1));
  EXPECT_FALSE(d.RangeReady(0, 4097));
}

TEST(MemRefTest, DomainsAndOverlap) {
  simos::PhysicalMemory phys(4 * kMiB);
  simos::AddressSpace space_a(&phys, 1, &hw::TimingModel::Default());
  simos::AddressSpace space_b(&phys, 2, &hw::TimingModel::Default());

  const MemRef ua = MemRef::User(&space_a, 0x1000);
  const MemRef ub = MemRef::User(&space_b, 0x1000);
  uint8_t kernel_buf[64];
  const MemRef k = MemRef::Kernel(kernel_buf);

  // Same numeric VA in different spaces lives in different domains, so
  // overlap probes keyed by (domain, start) never match across spaces.
  EXPECT_NE(ua.domain(), ub.domain());
  EXPECT_EQ(ua.domain(), MemRef::User(&space_a, 0x1020).domain());
  EXPECT_NE(ua.domain(), k.domain());
  EXPECT_EQ(k.domain(), MemRef::Kernel(kernel_buf + 32).domain());
  EXPECT_EQ(ua.start(), 0x1000u);
  EXPECT_EQ(k.start(), reinterpret_cast<uint64_t>(kernel_buf));

  EXPECT_EQ(ua.Offset(0x20).va, 0x1020u);
  EXPECT_EQ(k.Offset(8).host, kernel_buf + 8);
}

TEST(PostHandlerTest, Kinds) {
  int calls = 0;
  PostHandler none = PostHandler::None();
  EXPECT_EQ(none.kind, PostHandler::Kind::kNone);
  PostHandler kf = PostHandler::KernelFunc([&](Cycles) { ++calls; });
  EXPECT_EQ(kf.kind, PostHandler::Kind::kKernelFunc);
  kf.fn(0);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace copier::core
