// Engine-pool correctness (DESIGN.md §10): a randomized differential harness
// runs the same multi-client workload — overlapping private copies, mid-stream
// aborts, csyncs, and cross-client traffic on a shared kernel buffer — against
// pools of 1, 2, 4 and 8 engines and asserts byte-identical results. The
// shared buffer additionally has an in-order oracle: because the service-global
// submission sequence (gseq) fixes cross-client conflict order at submission,
// the final buffer must equal a host-side replay of the writes in submission
// order, and every read must observe exactly the writes submitted before it.
//
// A second, real-threaded test (the TSan target in CI) races kernel-client
// writers across a 4-engine pool and asserts WAW writes stay totally ordered:
// the shared buffer ends uniform — one writer's full pattern, never a torn mix.
// A third runs a kernel writer against the owners' own copies on a shared
// domain and checks the images against an in-order replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace copier::test {
namespace {

// --- randomized differential: N engines vs 1 --------------------------------

constexpr size_t kApps = 3;
constexpr size_t kWriters = 2;
constexpr size_t kSrcPool = 32 * kKiB;   // per-app source pool, never written
constexpr size_t kWork = 32 * kKiB;      // per-app working region, overlapping chains
constexpr size_t kAbortSlot = kKiB;      // per-app abort scratch slots
constexpr size_t kAbortSlots = 16;
constexpr size_t kArena = kSrcPool + kWork + kAbortSlots * kAbortSlot;
constexpr size_t kShared = 16 * kKiB;    // kernel buffer shared by all kernel clients
constexpr size_t kBatches = 14;

struct PoolResult {
  std::vector<std::vector<uint8_t>> images;   // final per-app arena contents
  std::vector<uint8_t> shared;                // final shared kernel buffer
  std::vector<std::vector<int>> kfunc_logs;   // per-writer KFUNC firing order
  uint64_t cross_probes = 0;
  uint64_t cross_settles = 0;
};

struct PoolApp {
  simos::Process* proc = nullptr;
  core::Client* client = nullptr;
  std::unique_ptr<lib::CopierLib> lib;
  uint64_t arena = 0;
  size_t abort_slot = 0;
};

PoolResult RunPoolScenario(size_t engines, uint64_t seed) {
  core::CopierConfig config;
  config.enable_engine_pool = true;
  config.engine_count = engines;
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.config = config;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();

  std::vector<PoolApp> apps(kApps);
  for (size_t a = 0; a < kApps; ++a) {
    apps[a].proc = kernel.CreateProcess("pool" + std::to_string(a));
    apps[a].client = service.AttachProcess(apps[a].proc);
    apps[a].lib = std::make_unique<lib::CopierLib>(apps[a].client, &service);
    auto arena = apps[a].proc->mem().MapAnonymous(kArena, "arena", true);
    EXPECT_TRUE(arena.ok());
    apps[a].arena = *arena;
    FillPattern(apps[a].proc->mem(), apps[a].arena, kArena, seed * 131 + a);
  }
  std::vector<core::Client*> writers(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers[w] = service.AttachKernelClient("writer" + std::to_string(w));
  }
  core::Client* reader = service.AttachKernelClient("reader");

  std::vector<uint8_t> shared(kShared, 0);
  std::vector<uint8_t> shared_ref(kShared, 0);  // in-submission-order replay
  // Task sources and read destinations must stay alive (and fixed) until the
  // copies execute; keep every per-task buffer for the scenario's lifetime.
  std::vector<std::unique_ptr<std::vector<uint8_t>>> keep_alive;
  // (read destination, expected bytes = shared_ref snapshot at submission)
  std::vector<std::pair<std::vector<uint8_t>*, std::vector<uint8_t>>> read_checks;

  PoolResult result;
  result.kfunc_logs.resize(kWriters);
  std::vector<int> writer_round(kWriters, 0);

  Rng rng(seed);
  for (size_t batch = 0; batch < kBatches; ++batch) {
    // Private overlapping copy chains per app, plus an occasional copy into a
    // fresh abort slot that is discarded before it can execute.
    std::vector<std::pair<size_t, uint64_t>> abort_now;  // (app, addr)
    for (size_t a = 0; a < kApps; ++a) {
      PoolApp& app = apps[a];
      for (int i = 0; i < 2; ++i) {
        const size_t len = 257 + rng.Below(3 * kKiB);
        size_t dst_off;
        size_t src_off;
        do {
          dst_off = kSrcPool + rng.Below(kWork - len);
          src_off = rng.OneIn(3) ? rng.Below(kSrcPool - len)
                                 : kSrcPool + rng.Below(kWork - len);
        } while (RangesOverlap(dst_off, len, src_off, len));
        app.lib->amemcpy(app.arena + dst_off, app.arena + src_off, len);
      }
      if (rng.OneIn(2) && app.abort_slot < kAbortSlots) {
        const uint64_t dst = app.arena + kSrcPool + kWork + app.abort_slot * kAbortSlot;
        ++app.abort_slot;
        app.lib->amemcpy(dst, app.arena + rng.Below(kSrcPool - kAbortSlot), kAbortSlot);
        abort_now.emplace_back(a, dst);
      }
    }
    // Kernel writers: gseq-stamped writes into the shared buffer, replayed
    // into the host-side reference in the same submission order.
    for (size_t w = 0; w < kWriters; ++w) {
      const int rounds = 1 + static_cast<int>(rng.OneIn(2));
      for (int r = 0; r < rounds; ++r) {
        const size_t len = 256 + rng.Below(1792);
        const size_t off = rng.Below(kShared - len);
        auto src = std::make_unique<std::vector<uint8_t>>(len);
        for (auto& b : *src) {
          b = static_cast<uint8_t>(rng.Next());
        }
        std::memcpy(shared_ref.data() + off, src->data(), len);
        core::CopyQueueEntry entry;
        entry.task.dst = core::MemRef::Kernel(shared.data() + off);
        entry.task.src = core::MemRef::Kernel(src->data());
        entry.task.length = len;
        entry.task.gseq = service.AllocateGlobalSeq();
        const int round = writer_round[w]++;
        auto* log = &result.kfunc_logs[w];
        entry.task.handler =
            core::PostHandler::KernelFunc([log, round](Cycles) { log->push_back(round); });
        EXPECT_TRUE(writers[w]->default_pair().kernel.copy_q.TryPush(std::move(entry)));
        keep_alive.push_back(std::move(src));
      }
    }
    // Reader: every read must see exactly the writes submitted before it —
    // gseq order, not whichever engine lands first.
    {
      const size_t len = 256 + rng.Below(2 * kKiB);
      const size_t off = rng.Below(kShared - len);
      auto dst = std::make_unique<std::vector<uint8_t>>(len, 0);
      core::CopyQueueEntry entry;
      entry.task.dst = core::MemRef::Kernel(dst->data());
      entry.task.src = core::MemRef::Kernel(shared.data() + off);
      entry.task.length = len;
      entry.task.gseq = service.AllocateGlobalSeq();
      EXPECT_TRUE(reader->default_pair().kernel.copy_q.TryPush(std::move(entry)));
      read_checks.emplace_back(
          dst.get(), std::vector<uint8_t>(shared_ref.begin() + off, shared_ref.begin() + off + len));
      keep_alive.push_back(std::move(dst));
    }
    // Ingest everything with zero-budget serves (fixed client order) so the
    // aborts below see their victims pending and so every cross-client
    // conflict is ledger-visible before any engine executes.
    auto ingest = [&](core::Client* c, bool kernel_q) {
      auto& pair = c->default_pair();
      while (!(kernel_q ? pair.kernel.copy_q.Empty() : pair.user.copy_q.Empty())) {
        service.Serve(*c, 0);
      }
    };
    for (auto& app : apps) {
      ingest(app.client, false);
    }
    for (auto* w : writers) {
      ingest(w, true);
    }
    ingest(reader, true);
    for (const auto& [a, addr] : abort_now) {
      core::SyncTask sync;
      sync.kind = core::SyncTask::Kind::kAbort;
      sync.addr = core::MemRef::User(apps[a].client->space(), addr);
      sync.length = kAbortSlot;
      apps[a].client->default_pair().user.sync_q.TryPush(std::move(sync));
    }
    // Execute: round-robin the pool. The interleaving differs per engine
    // count; the results must not.
    const size_t pumps = 1 + rng.Below(3);
    for (size_t p = 0; p < pumps; ++p) {
      for (size_t e = 0; e < service.engine_count(); ++e) {
        service.RunOnce(e);
      }
    }
    if (batch % 4 == 3) {
      EXPECT_TRUE(apps[batch % kApps].lib->csync_all().ok());
    }
  }
  for (auto& app : apps) {
    EXPECT_TRUE(app.lib->csync_all().ok());
  }
  service.DrainAll();

  for (auto& app : apps) {
    EXPECT_TRUE(app.client->pending.empty());
    result.images.push_back(ReadAll(app.proc->mem(), app.arena, kArena));
  }
  // In-order oracle: gseq order == submission order == the host replay.
  EXPECT_EQ(shared, shared_ref);
  result.shared = shared;
  for (const auto& [dst, expected] : read_checks) {
    EXPECT_EQ(*dst, expected);
  }
  // Every writer KFUNC fired exactly once.
  for (size_t w = 0; w < kWriters; ++w) {
    std::vector<int> sorted = result.kfunc_logs[w];
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> want(static_cast<size_t>(writer_round[w]));
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(sorted, want) << "writer " << w;
  }
  const core::Engine::Stats stats = service.TotalStats();
  result.cross_probes = stats.cross_dep_probes;
  result.cross_settles = stats.cross_dep_settles;
  return result;
}

class EnginePoolDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePoolDifferential, PooledRunsMatchSingleEngineByteForByte) {
  const uint64_t seed = GetParam();
  const PoolResult baseline = RunPoolScenario(1, seed);
  EXPECT_GT(baseline.cross_probes, 0u);
  for (size_t engines : {2u, 4u, 8u}) {
    SCOPED_TRACE("engines=" + std::to_string(engines));
    const PoolResult pooled = RunPoolScenario(engines, seed);
    ASSERT_EQ(pooled.images, baseline.images);
    ASSERT_EQ(pooled.shared, baseline.shared);
    EXPECT_EQ(pooled.kfunc_logs, baseline.kfunc_logs);
    EXPECT_GT(pooled.cross_probes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePoolDifferential, ::testing::Values(1u, 7u, 23u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- counter registry ----------------------------------------------------------
//
// TotalStats() sums the engines' snapshots over COPIER_ENGINE_COUNTERS: after
// a workload that runs on both engines of a pool, every listed counter must
// equal the sum of the per-engine values, and last_kfunc_cycles their max.

TEST(EnginePoolStats, TotalSumsEveryListedCounter) {
  core::CopierConfig config;
  config.enable_engine_pool = true;
  config.engine_count = 2;
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.config = config;
  core::CopierService service(std::move(options));
  core::CopierLinux glue(&service, &kernel);
  glue.Install();
  ASSERT_EQ(service.engine_count(), 2u);

  // Two apps on different home engines, each with a DMA-sized copy, a small
  // copy and a kernel write carrying a KFUNC.
  constexpr size_t kBig = 512 * kKiB;
  std::vector<uint8_t> kernel_src(8 * kKiB, 0x5a);
  std::vector<uint8_t> kernel_dst(8 * kKiB, 0);
  std::vector<PoolApp> apps(2);
  for (size_t a = 0; a < apps.size(); ++a) {
    PoolApp& app = apps[a];
    app.proc = kernel.CreateProcess("stats" + std::to_string(a));
    app.client = service.AttachProcess(app.proc);
    app.lib = std::make_unique<lib::CopierLib>(app.client, &service);
    auto buf = app.proc->mem().MapAnonymous(2 * kBig + kPageSize, "buf", true);
    ASSERT_TRUE(buf.ok());
    FillPattern(app.proc->mem(), *buf, kBig, 50 + a);
    app.lib->amemcpy(*buf + kBig, *buf, kBig);
    app.lib->amemcpy(*buf + 2 * kBig, *buf + 64, kKiB);
    core::CopyQueueEntry entry;
    entry.task.dst = core::MemRef::Kernel(kernel_dst.data() + 4 * kKiB * a);
    entry.task.src = core::MemRef::Kernel(kernel_src.data());
    entry.task.length = 4 * kKiB;
    entry.task.handler = core::PostHandler::KernelFunc([](Cycles) {});
    ASSERT_TRUE(app.client->default_pair().kernel.copy_q.TryPush(std::move(entry)));
  }
  ASSERT_NE(service.EngineIndexFor(*apps[0].client), service.EngineIndexFor(*apps[1].client));
  for (PoolApp& app : apps) {
    ASSERT_TRUE(app.lib->csync_all().ok());
  }
  service.DrainAll();
  EXPECT_EQ(kernel_dst, std::vector<uint8_t>(8 * kKiB, 0x5a));

  core::Engine::Stats sum;
  uint64_t max_kfunc = 0;
  for (size_t i = 0; i < service.engine_count(); ++i) {
    const core::Engine::Stats s = service.engine_util(i).stats;
    EXPECT_GT(s.tasks_completed, 0u) << "engine " << i << " served nothing";
    EXPECT_GT(s.kfuncs_run, 0u) << "engine " << i;
#define COPIER_TEST_SUM(name) sum.name += s.name;
    COPIER_ENGINE_COUNTERS(COPIER_TEST_SUM)
#undef COPIER_TEST_SUM
    max_kfunc = std::max(max_kfunc, s.last_kfunc_cycles);
  }
  const core::Engine::Stats total = service.TotalStats();
#define COPIER_TEST_EQ(name) EXPECT_EQ(total.name, sum.name) << #name;
  COPIER_ENGINE_COUNTERS(COPIER_TEST_EQ)
#undef COPIER_TEST_EQ
  EXPECT_EQ(total.last_kfunc_cycles, max_kfunc);
  EXPECT_GT(max_kfunc, 0u);
  EXPECT_GT(total.dma_bytes_completed, 0u);
}

// --- real-threaded pool stress (TSan target) --------------------------------
//
// Four engine threads, three app threads on private arenas, and two kernel
// writer threads racing full-buffer writes on one shared kernel buffer. Every
// write carries a gseq, so WAW conflicts have a total order: the final buffer
// must be one writer's pattern end to end. A torn mix of patterns means two
// engines interleaved conflicting writes.

TEST(EnginePoolThreaded, SharedBufferWritesStayTotallyOrdered) {
  constexpr size_t kBuf = 8 * kKiB;
  constexpr int kRounds = 6;
  constexpr size_t kThreadedApps = 3;

  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.mode = core::CopierService::Mode::kThreaded;
  options.config.enable_engine_pool = true;
  options.config.engine_count = 4;
  options.config.min_threads = 4;
  options.config.max_threads = 4;
  core::CopierService service(std::move(options));
  service.Start();

  std::vector<PoolApp> apps(kThreadedApps);
  for (size_t a = 0; a < kThreadedApps; ++a) {
    apps[a].proc = kernel.CreateProcess("tapp" + std::to_string(a));
    apps[a].client = service.AttachProcess(apps[a].proc);
    apps[a].lib = std::make_unique<lib::CopierLib>(apps[a].client, &service);
    auto arena = apps[a].proc->mem().MapAnonymous(64 * kKiB, "arena", true);
    ASSERT_TRUE(arena.ok());
    apps[a].arena = *arena;
    FillPattern(apps[a].proc->mem(), apps[a].arena, 64 * kKiB, 600 + a);
  }
  core::Client* writer_clients[2] = {service.AttachKernelClient("w0"),
                                     service.AttachKernelClient("w1")};

  std::vector<uint8_t> shared(kBuf, 0);
  // Per-writer, per-round sources: sized up front so pointers stay stable
  // while engine threads read them.
  std::vector<std::vector<uint8_t>> sources[2];
  for (auto& s : sources) {
    s.assign(kRounds, std::vector<uint8_t>(kBuf));
  }
  std::mutex gseq_mu;
  std::vector<std::pair<uint64_t, uint8_t>> write_log;  // (gseq, pattern byte)

  std::atomic<int> failures{0};
  // App threads copy from their (stable, never-written) source half into the
  // destination half; each csync'd copy is checked against the source bytes.
  auto app_worker = [&](size_t index) {
    PoolApp& app = apps[index];
    Rng rng(9000 + index * 37);
    const size_t half = 32 * kKiB;
    for (int i = 0; i < 60 && failures.load() == 0; ++i) {
      const size_t len = 64 + rng.Below(4 * kKiB);
      const size_t dst = rng.Below(half - len);
      const size_t src = half + rng.Below(half - len);
      app.lib->amemcpy(app.arena + dst, app.arena + src, len);
      if (rng.OneIn(3)) {
        ASSERT_TRUE(app.lib->csync(app.arena + dst, len).ok());
        std::vector<uint8_t> got(len);
        std::vector<uint8_t> want(len);
        ASSERT_TRUE(app.proc->mem().ReadBytes(app.arena + dst, got.data(), len).ok());
        ASSERT_TRUE(app.proc->mem().ReadBytes(app.arena + src, want.data(), len).ok());
        if (got != want) {
          failures.fetch_add(1);
        }
      }
    }
    ASSERT_TRUE(app.lib->csync_all().ok());
  };
  auto writer_worker = [&](int w) {
    for (int r = 0; r < kRounds; ++r) {
      const uint8_t pattern = static_cast<uint8_t>(0x40 + w * 0x20 + r);
      std::vector<uint8_t>& src = sources[w][static_cast<size_t>(r)];
      std::fill(src.begin(), src.end(), pattern);
      core::CopyQueueEntry entry;
      entry.task.dst = core::MemRef::Kernel(shared.data());
      entry.task.src = core::MemRef::Kernel(src.data());
      entry.task.length = kBuf;
      entry.task.gseq = service.AllocateGlobalSeq();
      {
        std::lock_guard<std::mutex> lock(gseq_mu);
        write_log.emplace_back(entry.task.gseq, pattern);
      }
      ASSERT_TRUE(writer_clients[w]->default_pair().kernel.copy_q.TryPush(std::move(entry)));
      service.NotifyRunnable(*writer_clients[w], kBuf);
    }
  };

  std::vector<std::thread> threads;
  for (size_t a = 0; a < kThreadedApps; ++a) {
    threads.emplace_back(app_worker, a);
  }
  threads.emplace_back(writer_worker, 0);
  threads.emplace_back(writer_worker, 1);
  for (auto& t : threads) {
    t.join();
  }
  service.DrainAll();
  service.Stop();
  EXPECT_EQ(failures.load(), 0);

  // The buffer must be uniformly one writer's pattern: WAW order is total, so
  // conflicting full-buffer writes can never interleave into a mix.
  ASSERT_FALSE(write_log.empty());
  const uint8_t first = shared[0];
  bool uniform = true;
  for (size_t i = 1; i < kBuf; ++i) {
    if (shared[i] != first) {
      uniform = false;
      break;
    }
  }
  EXPECT_TRUE(uniform) << "shared buffer ended as a torn mix of writer patterns";
  bool valid = false;
  for (const auto& [gseq, pattern] : write_log) {
    valid |= pattern == first;
  }
  EXPECT_TRUE(valid) << "final byte " << int(first) << " matches no submitted pattern";

  const core::Engine::Stats stats = service.TotalStats();
  EXPECT_GT(stats.cross_dep_probes, 0u);
}

// --- ledger pruning vs submission-ring latency -------------------------------
//
// A task is stamped at submission but becomes ledger-visible only at
// ingestion. A tombstone (or a private landed write) ordered *after* such a
// stamped-but-unqueued task must survive until that task has had its chance
// to probe — pruning may only advance past the minimum outstanding gseq.

TEST(EnginePoolLedger, TombstoneSurvivesSubmissionRingLatency) {
  constexpr size_t kLen = 2 * kKiB;
  core::CopierService::Options options;
  options.config.enable_engine_pool = true;
  options.config.engine_count = 2;
  core::CopierService service(std::move(options));
  core::Client* early = service.AttachKernelClient("early");
  core::Client* late = service.AttachKernelClient("late");

  std::vector<uint8_t> shared(kLen, 0);
  std::vector<uint8_t> old_pattern(kLen, 0xAA);
  std::vector<uint8_t> new_pattern(kLen, 0xBB);

  // The older (lower-gseq) write is stamped but lingers un-ingested while the
  // newer write fully lands AND retires; only then does it enter its ring.
  core::CopyQueueEntry old_write;
  old_write.task.dst = core::MemRef::Kernel(shared.data());
  old_write.task.src = core::MemRef::Kernel(old_pattern.data());
  old_write.task.length = kLen;
  old_write.task.gseq = service.AllocateGlobalSeq();

  core::CopyQueueEntry new_write;
  new_write.task.dst = core::MemRef::Kernel(shared.data());
  new_write.task.src = core::MemRef::Kernel(new_pattern.data());
  new_write.task.length = kLen;
  new_write.task.gseq = service.AllocateGlobalSeq();
  ASSERT_TRUE(late->default_pair().kernel.copy_q.TryPush(std::move(new_write)));
  service.DrainAll();
  EXPECT_EQ(shared, new_pattern);

  // Dead-write suppression must still find the newer write's tombstone.
  ASSERT_TRUE(early->default_pair().kernel.copy_q.TryPush(std::move(old_write)));
  service.DrainAll();
  EXPECT_EQ(shared, new_pattern) << "pruned tombstone let an older stamped write land on top";
}

// The same window across the private->shared transition: the owner's
// own-space write ingests as private (no ledger entry, no tombstone) and
// lands before a lower-gseq foreign write — stamped earlier, still in its
// ring — first turns the domain shared. The foreign write must find the
// owner's landed write in its completed-write log (SettleForeign's owner-log
// scan) and be suppressed.

TEST(EnginePoolLedger, OwnerPrivateWriteSurvivesSharedTransition) {
  constexpr size_t kLen = kKiB;
  constexpr size_t kArenaBytes = 8 * kKiB;
  simos::SimKernel kernel;
  core::CopierService::Options options;
  options.config.enable_engine_pool = true;
  options.config.engine_count = 2;
  core::CopierService service(std::move(options));
  simos::Process* proc = kernel.CreateProcess("owner");
  core::Client* owner = service.AttachProcess(proc);
  lib::CopierLib lib(owner, &service);
  auto arena = proc->mem().MapAnonymous(kArenaBytes, "arena", true);
  ASSERT_TRUE(arena.ok());
  FillPattern(proc->mem(), *arena, kArenaBytes, 42);
  core::Client* foreign = service.AttachKernelClient("foreign");

  // Foreign write into the owner's space: stamped first (lower gseq), queued
  // only after the owner's private write has landed and retired.
  std::vector<uint8_t> stale(kLen, 0xCC);
  core::CopyQueueEntry entry;
  entry.task.dst = core::MemRef::User(&proc->mem(), *arena);
  entry.task.src = core::MemRef::Kernel(stale.data());
  entry.task.length = kLen;
  entry.task.gseq = service.AllocateGlobalSeq();

  // Owner's own-space copy: higher gseq, private at ingestion (the domain is
  // not shared yet), completes and retires entirely.
  lib.amemcpy(*arena, *arena + 4 * kKiB, kLen);
  ASSERT_TRUE(lib.csync_all().ok());
  service.DrainAll();
  const std::vector<uint8_t> want = ReadAll(proc->mem(), *arena, kLen);
  ASSERT_NE(want, stale);

  ASSERT_TRUE(foreign->default_pair().kernel.copy_q.TryPush(std::move(entry)));
  service.DrainAll();
  EXPECT_EQ(ReadAll(proc->mem(), *arena, kLen), want)
      << "foreign lower-gseq write overwrote the owner's newer private write";
}


// --- shared domain: kernel writer vs the owner's own copies ------------------
//
// Two apps on a 2-engine pool; a kernel writer streams gseq-stamped writes
// into app0's arena, making the domain shared, while both apps run
// page-aligned own-space copies strip -> work (RAW against the writer). The
// engines are pumped round-robin between batches. The images must equal an
// in-order replay of the stream, and the writer's KFUNCs fire in submission
// order.

TEST(EnginePoolSharedDomain, WriterAndOwnCopiesMatchInOrderReplay) {
  constexpr size_t kPoolApps = 2;
  constexpr size_t kStrip = 16 * kKiB;    // writer-fed strip at the arena head
  constexpr size_t kPoolWork = 64 * kKiB;
  constexpr size_t kBytes = kStrip + kPoolWork;
  for (const uint64_t seed : {41u, 42u}) {
    SCOPED_TRACE(seed);
    core::CopierConfig config;
    config.enable_engine_pool = true;
    config.engine_count = 2;
    simos::SimKernel kernel;
    core::CopierService::Options options;
    options.config = config;
    core::CopierService service(std::move(options));
    core::CopierLinux glue(&service, &kernel);
    glue.Install();

    std::vector<PoolApp> apps(kPoolApps);
    std::vector<std::vector<uint8_t>> models(kPoolApps);
    for (size_t a = 0; a < kPoolApps; ++a) {
      apps[a].proc = kernel.CreateProcess("xapp" + std::to_string(a));
      apps[a].client = service.AttachProcess(apps[a].proc);
      apps[a].lib = std::make_unique<lib::CopierLib>(apps[a].client, &service);
      auto arena = apps[a].proc->mem().MapAnonymous(kBytes, "arena", true);
      ASSERT_TRUE(arena.ok());
      apps[a].arena = *arena;
      models[a] = PatternBytes(kBytes, seed * 17 + a);
      ASSERT_TRUE(apps[a].proc->mem().WriteBytes(*arena, models[a].data(), kBytes).ok());
    }
    core::Client* writer = service.AttachKernelClient("xwriter");

    std::vector<int> kfunc_log;
    std::vector<std::unique_ptr<std::vector<uint8_t>>> keep_alive;
    Rng rng(seed * 104729 + 5);
    int next_id = 0;
    for (int batch = 0; batch < 10; ++batch) {
      // Writer: k-mode write into app0's strip (foreign-space dst -> the
      // domain is shared, the apps' own copies join the ledger).
      {
        const size_t len = kPageSize * (1 + rng.Below(2));
        const size_t off = AlignDown(rng.Below(kStrip - len), kPageSize);
        auto src = std::make_unique<std::vector<uint8_t>>(len);
        for (auto& b : *src) {
          b = static_cast<uint8_t>(rng.Next());
        }
        core::CopyQueueEntry entry;
        entry.task.dst = core::MemRef::User(apps[0].client->space(), apps[0].arena + off);
        entry.task.src = core::MemRef::Kernel(src->data());
        entry.task.length = len;
        entry.task.gseq = service.AllocateGlobalSeq();
        const int id = next_id++;
        entry.task.handler =
            core::PostHandler::KernelFunc([&kfunc_log, id](Cycles) { kfunc_log.push_back(id); });
        EXPECT_TRUE(writer->default_pair().kernel.copy_q.TryPush(std::move(entry)));
        std::copy(src->begin(), src->end(), models[0].begin() + off);
        keep_alive.push_back(std::move(src));
      }
      // Apps: page-aligned own-space copies strip -> work.
      for (size_t a = 0; a < kPoolApps; ++a) {
        const size_t len = kPageSize * (1 + rng.Below(3));  // < kStrip, so Below() below is sound
        const size_t dst_off = kStrip + AlignDown(rng.Below(kPoolWork - len), kPageSize);
        const size_t src_off = AlignDown(rng.Below(kStrip - len), kPageSize);
        apps[a].lib->amemcpy(apps[a].arena + dst_off, apps[a].arena + src_off, len);
        std::memmove(models[a].data() + dst_off, models[a].data() + src_off, len);
      }
      // Ingest every queue, then drive both engines round-robin.
      const auto ingest = [&](core::Client* c, bool kernel_q) {
        auto& pair = c->default_pair();
        while (!(kernel_q ? pair.kernel.copy_q.Empty() : pair.user.copy_q.Empty())) {
          service.Serve(*c, 0);
        }
      };
      ingest(writer, true);
      for (PoolApp& app : apps) {
        ingest(app.client, false);
      }
      const size_t pumps = 1 + rng.Below(2);
      for (size_t p = 0; p < pumps; ++p) {
        for (size_t e = 0; e < service.engine_count(); ++e) {
          service.RunOnce(e);
        }
      }
    }
    for (PoolApp& app : apps) {
      EXPECT_TRUE(app.lib->csync_all().ok());
    }
    service.DrainAll();
    for (size_t a = 0; a < kPoolApps; ++a) {
      EXPECT_EQ(ReadAll(apps[a].proc->mem(), apps[a].arena, kBytes), models[a]) << "app " << a;
    }
    std::vector<int> submission_order(next_id);
    std::iota(submission_order.begin(), submission_order.end(), 0);
    EXPECT_EQ(kfunc_log, submission_order);
    EXPECT_GT(service.TotalStats().cross_dep_probes, 0u) << "the domain must turn shared";
  }
}

}  // namespace
}  // namespace copier::test
