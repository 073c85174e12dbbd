// Unit tests for the hardware layer: copy units, timing model, DMA engine.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/align.h"
#include "src/hw/copy_unit.h"
#include "src/hw/dma_engine.h"
#include "src/hw/timing_model.h"

namespace copier::hw {
namespace {

TEST(CopyUnits, AvxAndErmsMoveBytesCorrectly) {
  for (size_t n : {size_t{1}, size_t{31}, size_t{64}, size_t{100}, size_t{4096}, size_t{70000}}) {
    std::vector<uint8_t> src(n);
    for (size_t i = 0; i < n; ++i) {
      src[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    std::vector<uint8_t> dst_avx(n, 0);
    std::vector<uint8_t> dst_erms(n, 0);
    AvxCopy(dst_avx.data(), src.data(), n);
    ErmsCopy(dst_erms.data(), src.data(), n);
    EXPECT_EQ(dst_avx, src) << "AVX n=" << n;
    EXPECT_EQ(dst_erms, src) << "ERMS n=" << n;
  }
}

TEST(TimingModel, CurveInterpolationMonotoneCost) {
  const TimingModel& m = TimingModel::Default();
  Cycles prev = 0;
  for (size_t n = 256; n <= 4 * kMiB; n *= 2) {
    const Cycles c = m.avx.CopyCycles(n);
    EXPECT_GT(c, prev) << n;  // bigger copies cost more cycles
    prev = c;
  }
}

TEST(TimingModel, RelativeUnitPerformanceMatchesPaper) {
  const TimingModel& m = TimingModel::Default();
  // AVX beats ERMS across the range (Fig. 9 premise).
  for (size_t n : {size_t{1024}, size_t{4096}, size_t{65536}, size_t{262144}}) {
    EXPECT_LT(m.avx.CopyCycles(n), m.erms.CopyCycles(n)) << n;
  }
  // DMA is slower than AVX standalone, especially for small sizes (Fig. 7-a).
  EXPECT_GT(m.DmaTransferCycles(1024), m.avx.CopyCycles(1024));
  EXPECT_GT(m.DmaTransferCycles(256 * kKiB), m.avx.CopyCycles(256 * kKiB));
  // DMA submission cost ≈ AVX time for ~1.4 KiB (§4.3).
  const Cycles avx_1_4k = m.avx.CopyCycles(1433);
  EXPECT_NEAR(static_cast<double>(m.dma_submit_cycles), static_cast<double>(avx_1_4k),
              avx_1_4k * 0.35);
}

TEST(TimingModel, CalibratedKeepsDmaRatio) {
  const TimingModel calibrated = TimingModel::Calibrated();
  EXPECT_GT(calibrated.avx.BytesPerCycle(4096), 0.1);
  EXPECT_LT(calibrated.dma.BytesPerCycle(256 * kKiB),
            calibrated.avx.BytesPerCycle(256 * kKiB));
}

TEST(DmaEngine, MovesDataAndModelsCompletion) {
  const TimingModel& m = TimingModel::Default();
  DmaEngine dma(&m);
  std::vector<uint8_t> src(64 * kKiB, 0x5A);
  std::vector<uint8_t> dst(64 * kKiB, 0);

  DmaDescriptor desc{dst.data(), src.data(), src.size()};
  auto cookie = dma.SubmitBatch({&desc, 1}, /*now=*/1000);
  ASSERT_TRUE(cookie.ok());
  // Data moved eagerly.
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  // Completion is in the modeled future.
  const Cycles completion = dma.CompletionTime(*cookie);
  EXPECT_GT(completion, 1000u + m.dma_submit_cycles);
  EXPECT_FALSE(dma.IsComplete(*cookie, 1000));
  EXPECT_TRUE(dma.IsComplete(*cookie, completion));
  EXPECT_EQ(dma.Poll(completion), 1u);
  EXPECT_EQ(dma.in_flight(), 0u);
}

TEST(DmaEngine, OverlappingDescriptorMovesLikeMemmove) {
  const TimingModel& m = TimingModel::Default();
  DmaEngine dma(&m);
  constexpr size_t kLen = 8 * kKiB;
  constexpr size_t kShift = 1000;  // src and dst overlap by kLen - kShift
  std::vector<uint8_t> buf(kLen + kShift);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + i / 251);
  }
  for (const bool forward : {true, false}) {
    std::vector<uint8_t> expect = buf;
    std::vector<uint8_t> got = buf;
    uint8_t* dst = got.data() + (forward ? kShift : 0);
    const uint8_t* src = got.data() + (forward ? 0 : kShift);
    std::memmove(expect.data() + (forward ? kShift : 0), expect.data() + (forward ? 0 : kShift),
                 kLen);
    DmaDescriptor desc{dst, src, kLen};
    ASSERT_TRUE(dma.SubmitBatch({&desc, 1}, 0).ok());
    EXPECT_EQ(got, expect) << (forward ? "dst above src" : "dst below src");
  }
}

TEST(DmaEngine, SerialChannelQueues) {
  const TimingModel& m = TimingModel::Default();
  DmaEngine dma(&m);
  std::vector<uint8_t> buf(8 * kKiB);
  DmaDescriptor desc{buf.data(), buf.data() + 4 * kKiB, 4 * kKiB};
  auto c1 = dma.SubmitBatch({&desc, 1}, 0);
  auto c2 = dma.SubmitBatch({&desc, 1}, 0);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_GT(dma.CompletionTime(*c2), dma.CompletionTime(*c1));
}

TEST(DmaEngine, RingFullRejects) {
  const TimingModel& m = TimingModel::Default();
  DmaEngine dma(&m, /*ring_slots=*/2);
  std::vector<uint8_t> buf(kPageSize * 2);
  DmaDescriptor desc{buf.data(), buf.data() + kPageSize, kPageSize};
  ASSERT_TRUE(dma.SubmitBatch({&desc, 1}, 0).ok());
  ASSERT_TRUE(dma.SubmitBatch({&desc, 1}, 0).ok());
  auto full = dma.SubmitBatch({&desc, 1}, 0);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kUnavailable);
  // Poll past completion frees slots.
  dma.Poll(UINT64_MAX);
  EXPECT_TRUE(dma.SubmitBatch({&desc, 1}, 0).ok());
}

TEST(DmaEngine, BatchSubmissionCostScales) {
  const TimingModel& m = TimingModel::Default();
  DmaEngine dma(&m);
  EXPECT_EQ(dma.SubmissionCost(1), m.dma_submit_cycles);
  EXPECT_EQ(dma.SubmissionCost(4), m.dma_submit_cycles + 3 * m.dma_per_desc_cycles);
}

}  // namespace
}  // namespace copier::hw
