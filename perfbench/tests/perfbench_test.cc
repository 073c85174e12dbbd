// Self-tests of the benchmark's own arithmetic and of its determinism.
#include <gtest/gtest.h>

#include <vector>

#include "src/stats.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankReturnsAnObservedSample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7, 3, 5}, 50), 5);  // unsorted input
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(10000, 99.9));
  EXPECT_FALSE(PercentileSupported(9999, 99.9));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
}

TEST(Backlog, FlatLagDoesNotGrow) {
  EXPECT_FALSE(BacklogGrows(std::vector<double>(400, 100.0), 10));
  EXPECT_FALSE(BacklogGrows({}, 10));
  EXPECT_FALSE(BacklogGrows({0, 0, 0, 1000}, 10));  // too few samples to judge
}

TEST(Backlog, RisingLagGrows) {
  std::vector<double> lags;
  for (int i = 0; i < 400; ++i) {
    lags.push_back(i * 10.0);
  }
  EXPECT_TRUE(BacklogGrows(lags, 10));
  // A rise below the slack is noise.
  std::vector<double> small(400, 0.0);
  for (size_t i = 300; i < 400; ++i) {
    small[i] = 5;
  }
  EXPECT_FALSE(BacklogGrows(small, 10));
  EXPECT_TRUE(BacklogGrows(small, 1));
}

TEST(SloLadder, PicksHighestRungMeetingTheSlo) {
  const std::vector<double> ladder = {10, 20, 30, 40, 50, 60};
  std::vector<double> tried;
  auto p99_rises = [&](double rate) {
    tried.push_back(rate);
    return RungResult{rate, false};  // p99 equals the rate
  };
  EXPECT_EQ(SloRate(ladder, 35, p99_rises), 30);
  EXPECT_LE(tried.size(), 3u);  // bisection, not a scan
  EXPECT_EQ(SloRate(ladder, 60, p99_rises), 60);
  EXPECT_EQ(SloRate(ladder, 5, p99_rises), 0);
}

TEST(SloLadder, GrowingBacklogFailsARung) {
  const std::vector<double> ladder = {10, 20, 30, 40};
  auto backlog_from_30 = [](double rate) { return RungResult{1, rate >= 30}; };
  EXPECT_EQ(SloRate(ladder, 100, backlog_from_30), 20);
}

Span MakeSpan(int32_t parent, uint64_t host_lo, uint64_t host_hi, uint64_t v_lo,
              uint64_t v_hi, Layer layer = Layer::kSimos) {
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.host_start = host_lo;
  s.host_end = host_hi;
  s.v_start = v_lo;
  s.v_end = v_hi;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent) {
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100, 0, 1000, Layer::kBench),
      MakeSpan(0, 10, 30, 100, 200),   // overlaps the next child
      MakeSpan(0, 20, 50, 150, 300),
      MakeSpan(0, 90, 120, 900, 1200),  // runs past the parent's end
      MakeSpan(1, 12, 14, 110, 120, Layer::kLinuxGlue),
      MakeSpan(-1, 200, 300, 2000, 3000),  // outside any request
      MakeSpan(5, 210, 220, 2100, 2200),
  };
  const std::vector<uint64_t> host = SelfTimes(spans, false);
  EXPECT_EQ(host[0], 100u - 40u - 10u);
  EXPECT_EQ(host[1], 20u - 2u);
  EXPECT_EQ(host[2], 30u);
  EXPECT_EQ(host[4], 2u);
  const std::vector<uint64_t> virt = SelfTimes(spans, true);
  EXPECT_EQ(virt[0], 1000u - 200u - 100u);
  EXPECT_EQ(virt[1], 90u);

  const std::vector<RequestBreakdown> requests = BreakDown(spans);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].latency_cycles, 1000u);
  EXPECT_EQ(requests[0].covered_cycles, 300u);  // [100,300) and [900,1000)
  EXPECT_EQ(requests[0].self_cycles[static_cast<size_t>(Layer::kSimos)], 90u + 150u + 300u);
  EXPECT_EQ(requests[0].self_host_ns[static_cast<size_t>(Layer::kLinuxGlue)], 2u);
}

TEST(SelfTime, TracerNestsScopedSpans) {
  Tracer tracer;
  copier::ExecContext ctx;
  tracer.BeginRequest(7, 0);
  {
    ScopedSpan outer(&tracer, "apps.outer", Layer::kApps, &ctx);
    ctx.Charge(100);
    ScopedSpan inner(&tracer, "simos.inner", Layer::kSimos, &ctx);
    ctx.Charge(50);
  }
  tracer.EndRequest(ctx.now());
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 1);
  EXPECT_EQ(tracer.spans()[2].v_end - tracer.spans()[2].v_start, 50u);
  EXPECT_EQ(SelfTimes(tracer.spans(), true)[1], 100u);
  EXPECT_EQ(tracer.spans()[0].request, 7u);
}

void ExpectSameVirtual(const PassOutput& a, const PassOutput& b) {
  EXPECT_EQ(a.output_hash, b.output_hash);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.lag_cycles, b.lag_cycles);
  EXPECT_EQ(a.copy_window_us, b.copy_window_us);
  EXPECT_EQ(a.span_us, b.span_us);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
}

TEST(Determinism, KvSameSeedSameVirtualMetricsTracedOrNot) {
  const KvInputs in = MakeKvInputs(3, 3000, 29000, 16, 0.1);
  const PassOutput a = RunKvPass(in, KvOptions{});
  const PassOutput b = RunKvPass(in, KvOptions{});
  ExpectSameVirtual(a, b);
  Tracer tracer;
  KvOptions traced;
  traced.tracer = &tracer;
  ExpectSameVirtual(a, RunKvPass(in, traced));
  EXPECT_FALSE(tracer.spans().empty());
}

TEST(Determinism, IpcSameSeedSameVirtualMetrics) {
  const IpcInputs in = MakeIpcInputs(3, 40, 480000);
  const PassOutput a = RunIpcPass(in, nullptr);
  Tracer tracer;
  ExpectSameVirtual(a, RunIpcPass(in, &tracer));
  ExpectSameVirtual(a, RunIpcPass(in, nullptr));
}

TEST(Determinism, DeepQueueSameSeedSameVirtualMetrics) {
  const DeepInputs in = MakeDeepInputs(3, 1);
  const PassOutput a = RunDeepPass(in, nullptr);
  Tracer tracer;
  ExpectSameVirtual(a, RunDeepPass(in, &tracer));
  ExpectSameVirtual(a, RunDeepPass(in, nullptr));
}

TEST(Determinism, CopyThreadedSameSeedSameOutputsOnRealThreads) {
  const ThreadedInputs in = MakeThreadedInputs(3, 2);
  const PassOutput a = RunThreadedPass(in, nullptr);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.latency_us.size(), 2 * in.waves[0].size());
  EXPECT_GT(a.end.sched.picks, a.begin.sched.picks);  // the scheduler ran
  Tracer tracer;
  const PassOutput b = RunThreadedPass(in, &tracer);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(a.output_hash, b.output_hash);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_NEAR(a.span_us, b.span_us, a.span_us * 1e-3);
}

TEST(Inputs, SeedChangesTheTrace) {
  EXPECT_NE(MakeIpcInputs(1, 50, 1000).requests[0].content_offset,
            MakeIpcInputs(2, 50, 1000).requests[0].content_offset);
  EXPECT_EQ(MakeDeepInputs(5, 1).waves[0].ops[100].dst, MakeDeepInputs(5, 1).waves[0].ops[100].dst);
}

}  // namespace
}  // namespace perfbench
