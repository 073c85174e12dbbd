// Serving-harness test tier (DESIGN.md §13): loadgen distribution and
// determinism properties, deterministic replay of the virtual serving
// harness, overload-policy differentials (admitted requests byte-identical
// to an unloaded replay; rejected requests accounted exactly once),
// admission-control unit semantics at the service layer, and a threaded run
// exercising the same flow under real Copier threads (TSan tier).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/apps/serve_harness.h"
#include "src/common/rng.h"
#include "src/core/loadgen.h"
#include "src/core/service.h"

namespace copier::apps {
namespace {

using core::BuildServeTrace;
using core::CopierConfig;
using core::CopierService;
using core::ServeRequest;
using core::ServeWorkload;

// ---------------------------------------------------------------------------
// Loadgen units
// ---------------------------------------------------------------------------

ServeWorkload SmallWorkload(uint64_t seed = 11) {
  ServeWorkload workload;
  workload.seed = seed;
  workload.requests = 160;
  workload.connections = 8;
  workload.keys = 32;
  workload.value_sizes = {64, 512, 2048};
  workload.value_weights = {4.0, 2.0, 1.0};
  workload.mean_gap_cycles = 6000;
  workload.proxy_fraction = 0.1;
  workload.churn_every = 32;
  return workload;
}

bool SameRequest(const ServeRequest& a, const ServeRequest& b) {
  return a.index == b.index && a.arrival == b.arrival && a.conn == b.conn &&
         a.is_get == b.is_get && a.via_proxy == b.via_proxy && a.key == b.key &&
         a.value_bytes == b.value_bytes && a.churn_before == b.churn_before;
}

TEST(Loadgen, TraceIsDeterministicSortedAndModelConsistent) {
  const ServeWorkload workload = SmallWorkload();
  const auto trace = BuildServeTrace(workload);
  const auto again = BuildServeTrace(workload);
  ASSERT_EQ(trace.size(), workload.requests);
  ASSERT_EQ(again.size(), trace.size());
  std::vector<uint32_t> last_set(workload.keys, 0);
  Cycles prev_arrival = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(SameRequest(trace[i], again[i])) << "trace diverges at " << i;
    const ServeRequest& req = trace[i];
    EXPECT_EQ(req.index, i);
    EXPECT_GE(req.arrival, prev_arrival);
    prev_arrival = req.arrival;
    EXPECT_LT(req.conn, workload.connections);
    if (!req.via_proxy) {
      EXPECT_LT(req.key, workload.keys);
      if (req.is_get) {
        // GETs carry the latest preceding SET's size, and the first touch of
        // a key is always a SET — no GET may precede its key's first SET.
        EXPECT_GT(last_set[req.key], 0u) << "GET before first SET at " << i;
        EXPECT_EQ(req.value_bytes, last_set[req.key]);
      } else {
        last_set[req.key] = req.value_bytes;
      }
    }
  }
  // A different seed moves the trace.
  ServeWorkload other = workload;
  other.seed = workload.seed + 1;
  const auto moved = BuildServeTrace(other);
  bool any_diff = false;
  for (size_t i = 0; i < trace.size() && !any_diff; ++i) {
    any_diff = !SameRequest(trace[i], moved[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Loadgen, ZipfianIsSkewedTowardLowRanks) {
  const size_t kItems = 100;
  const size_t kSamples = 50000;
  core::ZipfianSampler sampler(kItems, 0.99);
  Rng rng(42);
  std::vector<uint64_t> counts(kItems, 0);
  for (size_t i = 0; i < kSamples; ++i) {
    const size_t item = sampler.Sample(rng);
    ASSERT_LT(item, kItems);
    ++counts[item];
  }
  // Item 0 dominates and the head carries far more than its uniform share:
  // with theta=0.99 over 100 items the top item draws ~19% and the top ten
  // ~63% of samples (uniform would be 1% / 10%).
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(), 0);
  uint64_t top_ten = 0;
  for (size_t i = 0; i < 10; ++i) {
    top_ten += counts[i];
  }
  EXPECT_GT(counts[0], kSamples / 10);
  EXPECT_GT(top_ten, kSamples / 2);
  // The tail is still reachable.
  uint64_t tail = 0;
  for (size_t i = kItems / 2; i < kItems; ++i) {
    tail += counts[i];
  }
  EXPECT_GT(tail, 0u);
}

TEST(Loadgen, BurstArrivalsKeepLongRunMeanAndExponentialShape) {
  const double kMeanGap = 10000;
  core::BurstConfig burst;
  burst.rate_multiplier = 8.0;
  burst.burst_fraction = 0.25;
  burst.mean_phase_requests = 32;
  Rng rng(7);
  core::ArrivalProcess arrivals(kMeanGap, burst, &rng);
  const size_t kSamples = 50000;
  double total = 0;
  std::vector<double> calm_gaps;
  double burst_total = 0;
  size_t burst_n = 0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double gap = static_cast<double>(arrivals.NextGap());
    total += gap;
    if (arrivals.in_burst()) {
      burst_total += gap;
      ++burst_n;
    } else {
      calm_gaps.push_back(gap);
    }
  }
  // The calm/burst mixture is derived to keep the requested long-run mean.
  EXPECT_NEAR(total / kSamples, kMeanGap, 0.15 * kMeanGap);
  ASSERT_GT(calm_gaps.size(), 0u);
  ASSERT_GT(burst_n, 0u);
  double calm_total = 0;
  for (double gap : calm_gaps) {
    calm_total += gap;
  }
  const double calm_mean = calm_total / static_cast<double>(calm_gaps.size());
  // Burst-phase gaps are ~8x tighter than calm-phase gaps.
  EXPECT_LT(burst_total / burst_n, 0.5 * calm_mean);
  // Exponential inter-arrival CDF within a phase: P(gap < phase mean) =
  // 1 - 1/e ~= 0.632.
  size_t below = 0;
  for (double gap : calm_gaps) {
    below += gap < calm_mean ? 1 : 0;
  }
  const double frac = static_cast<double>(below) / static_cast<double>(calm_gaps.size());
  EXPECT_NEAR(frac, 0.632, 0.05);
}

// ---------------------------------------------------------------------------
// Virtual harness: deterministic replay
// ---------------------------------------------------------------------------

bool SameRecord(const ServeRecord& a, const ServeRecord& b) {
  return a.index == b.index && a.conn == b.conn && a.is_get == b.is_get &&
         a.via_proxy == b.via_proxy && a.admitted == b.admitted && a.defers == b.defers &&
         a.throttled == b.throttled && a.latency_us == b.latency_us &&
         a.reply_hash == b.reply_hash && a.kfuncs_after == b.kfuncs_after;
}

TEST(ServeVirtual, SameSeedReplaysIdenticalTraceAndHistogram) {
  ServeOptions options;
  options.workload = SmallWorkload();
  const ServeResult first = RunServeVirtual(options);
  const ServeResult second = RunServeVirtual(options);
  ASSERT_TRUE(first.replies_ok);
  ASSERT_EQ(first.records.size(), options.workload.requests);
  ASSERT_EQ(first.records.size(), second.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_TRUE(SameRecord(first.records[i], second.records[i]))
        << "record " << i << " diverges between replays";
  }
  EXPECT_EQ(first.store_hash, second.store_hash);
  EXPECT_EQ(first.churns, second.churns);
  EXPECT_EQ(first.latency.Count(), second.latency.Count());
  EXPECT_EQ(first.latency.Percentile(50), second.latency.Percentile(50));
  EXPECT_EQ(first.latency.Percentile(99), second.latency.Percentile(99));
  EXPECT_EQ(first.latency.Percentile(99.9), second.latency.Percentile(99.9));
  EXPECT_EQ(first.stats.kfuncs_run, second.stats.kfuncs_run);
  EXPECT_EQ(first.stats.tasks_ingested, second.stats.tasks_ingested);
}

TEST(ServeVirtual, ChurnStormRecyclesConnectionsAndStillVerifies) {
  ServeOptions options;
  options.workload = SmallWorkload();
  options.workload.requests = 200;
  options.workload.churn_every = 4;  // storm: every 4th request reconnects
  const auto trace = BuildServeTrace(options.workload);
  uint64_t expected_churns = 0;
  for (const ServeRequest& req : trace) {
    expected_churns += req.churn_before ? 1 : 0;
  }
  ASSERT_GT(expected_churns, 40u);
  const ServeResult result = RunServeVirtual(options);
  EXPECT_EQ(result.churns, expected_churns);
  EXPECT_TRUE(result.replies_ok);
  EXPECT_EQ(result.offered, result.admitted);  // default policy admits all
  EXPECT_NE(result.store_hash, 0u);
}

// ---------------------------------------------------------------------------
// Overload-policy differentials
// ---------------------------------------------------------------------------

// A workload hot enough to saturate admission with tight inflight bounds.
ServeOptions OverloadedOptions(CopierConfig::OverloadPolicy policy) {
  ServeOptions options;
  options.workload = SmallWorkload(23);
  options.workload.requests = 200;
  options.workload.mean_gap_cycles = 1200;
  options.workload.proxy_fraction = 0;  // KV-only: every record hashes a reply
  options.config.overload_policy = policy;
  options.config.admission_max_inflight_requests = 3;
  options.config.admission_defer_cycles = 4000;
  options.config.admission_max_defer_retries = 2;
  return options;
}

TEST(ServeOverload, ShedDifferentialAdmittedBytesMatchUnloadedReplay) {
  const ServeOptions loaded_options =
      OverloadedOptions(CopierConfig::OverloadPolicy::kShed);
  const ServeResult loaded = RunServeVirtual(loaded_options);
  ASSERT_TRUE(loaded.replies_ok);
  // Every offered request is accounted exactly once.
  EXPECT_EQ(loaded.offered, loaded_options.workload.requests);
  EXPECT_EQ(loaded.offered, loaded.admitted + loaded.shed);
  ASSERT_GT(loaded.shed, 0u) << "workload not hot enough to shed";
  ASSERT_GT(loaded.admitted, loaded.shed) << "sheds should be the minority";
  EXPECT_EQ(loaded.stats.admission_admitted, loaded.admitted);
  EXPECT_EQ(loaded.stats.admission_shed, loaded.shed);
  for (const ServeRecord& rec : loaded.records) {
    if (!rec.admitted) {
      EXPECT_EQ(rec.reply_hash, 0u);
      EXPECT_EQ(rec.latency_us, 0.0);
    }
  }

  // Replay the admitted subset unloaded (wide fixed gaps, no policy): the
  // admitted requests must produce byte-identical replies and an identical
  // final store image — admission never splits or perturbs admitted work.
  const auto full_trace = BuildServeTrace(loaded_options.workload);
  std::vector<ServeRequest> admitted_subset;
  for (const ServeRecord& rec : loaded.records) {
    if (rec.admitted) {
      admitted_subset.push_back(full_trace[rec.index]);
    }
  }
  ServeOptions replay_options;
  replay_options.workload = loaded_options.workload;
  replay_options.trace = SpreadTrace(admitted_subset, 200000);
  const ServeResult replay = RunServeVirtual(replay_options);
  ASSERT_TRUE(replay.replies_ok);
  EXPECT_EQ(replay.admitted, loaded.admitted);
  EXPECT_EQ(replay.store_hash, loaded.store_hash);
  std::map<uint64_t, uint64_t> loaded_hash;
  for (const ServeRecord& rec : loaded.records) {
    if (rec.admitted) {
      loaded_hash[rec.index] = rec.reply_hash;
    }
  }
  // Per-client (per-conn) kfunc order: the sequence of engine kfunc deltas a
  // connection's admitted requests observe is a pure function of the request
  // bytes, so it must survive the move from loaded to unloaded timing.
  std::map<uint32_t, std::vector<uint64_t>> loaded_kfunc_deltas;
  uint64_t prev = 0;
  for (const ServeRecord& rec : loaded.records) {
    const uint64_t delta = rec.kfuncs_after - prev;
    prev = rec.kfuncs_after;
    if (rec.admitted) {
      loaded_kfunc_deltas[rec.conn].push_back(delta);
    }
  }
  std::map<uint32_t, std::vector<uint64_t>> replay_kfunc_deltas;
  prev = 0;
  for (const ServeRecord& rec : replay.records) {
    ASSERT_TRUE(rec.admitted);
    EXPECT_EQ(rec.reply_hash, loaded_hash[rec.index]) << "request " << rec.index;
    const uint64_t delta = rec.kfuncs_after - prev;
    prev = rec.kfuncs_after;
    replay_kfunc_deltas[rec.conn].push_back(delta);
  }
  EXPECT_EQ(loaded_kfunc_deltas, replay_kfunc_deltas);
}

TEST(ServeOverload, DeferRetriesThenAbandonsAndAccountsExactly) {
  const ServeOptions options = OverloadedOptions(CopierConfig::OverloadPolicy::kDefer);
  const ServeResult result = RunServeVirtual(options);
  ASSERT_TRUE(result.replies_ok);
  EXPECT_EQ(result.offered, result.admitted + result.shed);
  ASSERT_GT(result.defer_verdicts, 0u);
  EXPECT_EQ(result.stats.admission_deferred, result.defer_verdicts);
  bool saw_deferred_admit = false;
  for (const ServeRecord& rec : result.records) {
    if (rec.admitted && rec.defers > 0) {
      saw_deferred_admit = true;
    }
    if (!rec.admitted) {
      // Abandoned after exhausting the retry budget — accounted as shed. The
      // count includes the final verdict that tripped the budget.
      EXPECT_EQ(rec.defers, options.config.admission_max_defer_retries + 1);
    }
  }
  EXPECT_TRUE(saw_deferred_admit);
}

TEST(ServeOverload, ThrottleAdmitsEverythingWithBackpressure) {
  const ServeOptions options = OverloadedOptions(CopierConfig::OverloadPolicy::kThrottle);
  const ServeResult result = RunServeVirtual(options);
  ASSERT_TRUE(result.replies_ok);
  EXPECT_EQ(result.admitted, result.offered);
  EXPECT_EQ(result.shed, 0u);
  ASSERT_GT(result.throttle_verdicts, 0u);
  EXPECT_EQ(result.stats.admission_throttled, result.throttle_verdicts);
  EXPECT_GT(result.stats.admission_throttle_cycles, 0u);
}

TEST(ServeOverload, ShedKeepsTailBelowUnpolicedRun) {
  ServeOptions none = OverloadedOptions(CopierConfig::OverloadPolicy::kNone);
  const ServeResult unpoliced = RunServeVirtual(none);
  const ServeResult shed =
      RunServeVirtual(OverloadedOptions(CopierConfig::OverloadPolicy::kShed));
  ASSERT_TRUE(unpoliced.replies_ok);
  ASSERT_TRUE(shed.replies_ok);
  EXPECT_EQ(unpoliced.admitted, unpoliced.offered);
  // Shedding bounds queueing delay: the shed run's p99 sits below the
  // unpoliced run's p99 under the same overload.
  EXPECT_LT(shed.latency.Percentile(99), unpoliced.latency.Percentile(99));
}

// ---------------------------------------------------------------------------
// Admission-control unit semantics (service layer, no harness)
// ---------------------------------------------------------------------------

CopierService::Options AdmissionServiceOptions(CopierConfig::OverloadPolicy policy) {
  CopierService::Options options;
  options.config.overload_policy = policy;
  options.config.admission_max_inflight_requests = 1;
  options.config.admission_max_inflight_bytes = 1 << 20;
  return options;
}

TEST(Admission, ShedBoundsInflightAndHorizonDrainsByProberClock) {
  CopierService service(AdmissionServiceOptions(CopierConfig::OverloadPolicy::kShed));
  core::Client* client = service.AttachKernelClient("tenant");
  ASSERT_NE(client, nullptr);
  auto first = service.AdmitRequest(*client, 100, /*now=*/1000);
  EXPECT_EQ(first.verdict, CopierService::AdmissionVerdict::kAdmit);
  // One open request saturates max_inflight_requests=1.
  auto second = service.AdmitRequest(*client, 100, /*now=*/1100);
  EXPECT_EQ(second.verdict, CopierService::AdmissionVerdict::kShed);
  // Finishing with a future completion keeps the request inflight until the
  // prober's clock passes it (virtual-time queue depth), then admits again.
  service.FinishRequest(*client, 100, /*completion=*/5000);
  auto still_queued = service.AdmitRequest(*client, 100, /*now=*/2000);
  EXPECT_EQ(still_queued.verdict, CopierService::AdmissionVerdict::kShed);
  auto drained = service.AdmitRequest(*client, 100, /*now=*/6000);
  EXPECT_EQ(drained.verdict, CopierService::AdmissionVerdict::kAdmit);
  service.FinishRequest(*client, 100, /*completion=*/6001);
  const core::Engine::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.admission_admitted, 2u);
  EXPECT_EQ(stats.admission_shed, 2u);
}

TEST(Admission, OverloadIsPerCgroupNotGlobal) {
  CopierService service(AdmissionServiceOptions(CopierConfig::OverloadPolicy::kShed));
  core::Cgroup* hot_group = service.CreateCgroup("hot", core::kDefaultCopierShares);
  core::Cgroup* calm_group = service.CreateCgroup("calm", core::kDefaultCopierShares);
  core::Client* hot = service.AttachKernelClient("hot-client", hot_group);
  core::Client* calm = service.AttachKernelClient("calm-client", calm_group);
  ASSERT_NE(hot, nullptr);
  ASSERT_NE(calm, nullptr);
  EXPECT_EQ(service.AdmitRequest(*hot, 100, 1000).verdict,
            CopierService::AdmissionVerdict::kAdmit);
  EXPECT_EQ(service.AdmitRequest(*hot, 100, 1100).verdict,
            CopierService::AdmissionVerdict::kShed);
  // The calm tenant is untouched by the hot tenant's backlog.
  EXPECT_EQ(service.AdmitRequest(*calm, 100, 1100).verdict,
            CopierService::AdmissionVerdict::kAdmit);
  service.FinishRequest(*hot, 100, 1200);
  service.FinishRequest(*calm, 100, 1200);
}

TEST(Admission, DeferAndThrottleCarryWaitHints) {
  CopierService defer_service(
      AdmissionServiceOptions(CopierConfig::OverloadPolicy::kDefer));
  core::Client* client = defer_service.AttachKernelClient("tenant");
  EXPECT_EQ(defer_service.AdmitRequest(*client, 100, 1000).verdict,
            CopierService::AdmissionVerdict::kAdmit);
  auto deferred = defer_service.AdmitRequest(*client, 100, 1100);
  EXPECT_EQ(deferred.verdict, CopierService::AdmissionVerdict::kDefer);
  EXPECT_EQ(deferred.wait_cycles, defer_service.config().admission_defer_cycles);
  defer_service.AbandonRequest(*client);
  EXPECT_EQ(defer_service.TotalStats().admission_shed, 1u);

  CopierService throttle_service(
      AdmissionServiceOptions(CopierConfig::OverloadPolicy::kThrottle));
  core::Client* tenant = throttle_service.AttachKernelClient("tenant");
  EXPECT_EQ(throttle_service.AdmitRequest(*tenant, 100, 1000).verdict,
            CopierService::AdmissionVerdict::kAdmit);
  throttle_service.FinishRequest(*tenant, 100, /*completion=*/9000);
  // Throttle admits but imposes the wait to the horizon's drain point.
  auto throttled = throttle_service.AdmitRequest(*tenant, 100, /*now=*/2000);
  EXPECT_EQ(throttled.verdict, CopierService::AdmissionVerdict::kThrottle);
  EXPECT_EQ(throttled.wait_cycles, 9000u - 2000u);
  throttle_service.FinishRequest(*tenant, 100, 9100);
}

TEST(Admission, NonePolicyAlwaysAdmits) {
  CopierService service(AdmissionServiceOptions(CopierConfig::OverloadPolicy::kNone));
  core::Client* client = service.AttachKernelClient("tenant");
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(service.AdmitRequest(*client, 1 << 16, 1000 + i).verdict,
              CopierService::AdmissionVerdict::kAdmit);
  }
  EXPECT_EQ(service.TotalStats().admission_admitted, 16u);
}

// ---------------------------------------------------------------------------
// Threaded run (TSan tier): real Copier threads under the same flow
// ---------------------------------------------------------------------------

TEST(ServeThreaded, SmallTraceVerifiesUnderRealThreads) {
  ServeOptions options;
  options.workload = SmallWorkload(3);
  options.workload.requests = 48;
  options.workload.connections = 4;
  options.workload.proxy_fraction = 0;
  options.workload.mean_gap_cycles = 20000;
  options.threads = 2;
  options.ns_per_cycle = 1.0;
  const ServeResult result = RunServeThreaded(options);
  EXPECT_TRUE(result.replies_ok);
  EXPECT_EQ(result.offered, options.workload.requests);
  EXPECT_EQ(result.offered, result.admitted + result.shed);
  ASSERT_EQ(result.records.size(), options.workload.requests);
  EXPECT_NE(result.store_hash, 0u);
  EXPECT_GT(result.latency.Count(), 0u);
}

// Replies longer than one 4 KiB skb: under real threads the client's first
// Recv may return only the skbs that have landed, and the serving harness must
// read on until the whole reply is in. Taking the first read as the reply
// leaves the rest in the socket, where it becomes the start of the next reply.
// The 4088 B value makes a 4097 B GET reply, one byte past a single skb.
class ServeThreadedLongReplies : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServeThreadedLongReplies, EveryReplyMatchesTheModel) {
  const uint32_t value_bytes = GetParam();
  ServeOptions options;
  options.workload.seed = 5;
  options.workload.requests = value_bytes >= 256 * kKiB ? 96 : 256;
  options.workload.connections = 8;
  options.workload.keys = 16;
  options.workload.value_sizes = {value_bytes};
  options.workload.value_weights = {1.0};
  options.workload.mean_gap_cycles = 20000;
  options.threads = 2;
  options.ns_per_cycle = 1.0;
  const ServeResult result = RunServeThreaded(options);
  EXPECT_TRUE(result.replies_ok);
  EXPECT_EQ(result.admitted, options.workload.requests);
  ASSERT_EQ(result.records.size(), options.workload.requests);
  EXPECT_GT(std::count_if(result.records.begin(), result.records.end(),
                          [](const ServeRecord& r) { return r.is_get; }),
            0);
}

INSTANTIATE_TEST_SUITE_P(ValueBytes, ServeThreadedLongReplies,
                         ::testing::Values(4096u, 4088u, 16384u, 256u * 1024u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "v" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace copier::apps
