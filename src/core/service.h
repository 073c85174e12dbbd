// CopierService — the OS service tying everything together (§4.5).
//
// Owns clients, cgroups and Copier threads. Two driving modes:
//   * kManual   — no threads; the caller (tests, the virtual-time benchmark
//                 harness, single-core setups) drives RunOnce()/ServeClient()
//                 explicitly and csync() pumps the engine inline.
//   * kThreaded — real Copier (k)threads poll client queues, NAPI-style with
//                 idle back-off or scenario-driven (§4.5.1), with auto-scaling
//                 between min_threads and max_threads.
//
// Scheduling (§4.5.3): each serving pass picks the cgroup with minimum
// share-weighted vruntime, then the client with minimum total copy length in
// it, and serves at most one copy slice — CFS with copy length as the
// resource (§4.5.2).
//
// Threaded mode runs that policy over *sharded run queues* (DESIGN.md §7):
// every client has a stable home shard (id % shard_count); submitters mark it
// runnable there (NotifyRunnable) and issue a targeted wakeup of the shard's
// owning thread; a pick pops the best client from the thread's shards in
// O(log n) under the shard lock instead of scanning every client under a
// global mutex. Idle threads steal the highest-backlog runnable client from
// the fullest foreign shard before sleeping. Manual mode, where the caller
// names the engine to serve, keeps a global-mutex linear double scan over the
// clients homed on that engine.
#ifndef COPIER_SRC_CORE_SERVICE_H_
#define COPIER_SRC_CORE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/relaxed_counter.h"
#include "src/core/cgroup.h"
#include "src/core/client.h"
#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/sched.h"
#include "src/hw/dma_channel_pool.h"
#include "src/hw/timing_model.h"
#include "src/simos/copy_backend.h"
#include "src/simos/process.h"

namespace copier::core {

// Scheduler counters (host-side, real counters — not the virtual cost model),
// one X(name) entry each: they generate CopierService::SchedStats, its live
// RelaxedCounter mirror and sched_stats(). Comments are /* */ (see
// COPIER_ENGINE_COUNTERS).
#define COPIER_SCHED_COUNTERS(X)                                                  \
  X(picks)             /* successful picks (a client was returned) */             \
  X(pick_calls)        /* PickClient invocations, including idle */               \
  X(pick_attempts)     /* serving-CAS attempts on popped clients */               \
  X(pick_tsc_cycles)   /* host TSC cycles spent inside PickClient */              \
  X(clients_scanned)   /* manual-mode linear pick: clients examined */            \
  X(steals)            /* clients served off a foreign shard */                   \
  X(steal_attempts)                                                               \
  X(targeted_wakeups)  /* single-thread notify (sharded path) */                  \
  X(broadcast_wakeups) /* Awaken() notify-all over every shard */                 \
  X(reconcile_marks)   /* idle-path rescues of unnotified work */                 \
  /* Serve-end re-queues issued while the client still had DMA bytes in          \
     flight (the parked round's path back to a reaping serve, DESIGN.md §9). */  \
  X(dma_reap_requeues)

// Fused-IPC routing counters (DESIGN.md §12), one X(event, field) entry per
// simos::FuseEvent, pairing the event with its CopierService::IpcFuseStats
// field. The list generates the snapshot fields, the size of the
// event-indexed live counter array and ipc_fuse_stats().
#define COPIER_IPC_FUSE_COUNTERS(X)                                                     \
  X(kFused, fused)                                   /* dispatched as one fused task */ \
  X(kFallbackNotPosted, fallback_not_posted)         /* receiver window absent */       \
  X(kFallbackWindowFull, fallback_window_full)       /* window full/too small */        \
  X(kFallbackPoolExhausted, fallback_pool_exhausted) /* no skb/buffer token */          \
  X(kFallbackRing, fallback_ring)                    /* ring full -> two-step */        \
  X(kForwardFused, forward_fused)                    /* forwarded src->dest window */   \
  X(kFallbackForward, fallback_forward)              /* forward declined -> lands */    \
  X(kRingWindowPosted, ring_windows_posted)          /* posted behind another */        \
  X(kRingRollover, ring_rollovers)                   /* send spilled into next */

class CopierService : public CrossEngineHooks {
 public:
  enum class Mode {
    kManual,
    kThreaded,
  };

  struct Options {
    CopierConfig config;
    const hw::TimingModel* timing = nullptr;  // default: TimingModel::Default()
    Mode mode = Mode::kManual;
  };

  // Scheduler counters snapshot (COPIER_SCHED_COUNTERS); the live counters
  // are relaxed atomics.
  struct SchedStats {
    COPIER_SCHED_COUNTERS(COPIER_COUNTER_FIELD)
  };

  explicit CopierService(Options options);
  ~CopierService();

  CopierService(const CopierService&) = delete;
  CopierService& operator=(const CopierService&) = delete;

  // --- clients / cgroups -------------------------------------------------------

  // Attaches a process (copier_create_mapped_queue, Table 2): creates the
  // client with its default u/k queue pair. `cgroup` null = root cgroup.
  Client* AttachProcess(simos::Process* process, Cgroup* cgroup = nullptr);
  // Standalone kernel-service client (e.g. the CoW handler, §4.5).
  Client* AttachKernelClient(const std::string& name, Cgroup* cgroup = nullptr);
  Client* ClientById(uint64_t id);
  // Detaches and destroys a client: marks it detached (suppressing further
  // runnable notifications), removes it from its home shard's run queue and
  // the client tables (so no picker can still reach it), waits out any
  // in-flight serve, then frees it. Safe while threads run.
  void DetachClient(Client& client);

  Cgroup* CreateCgroup(const std::string& name, uint64_t shares);
  Cgroup* root_cgroup() { return root_cgroup_; }

  // --- overload admission control (DESIGN.md §13) ------------------------------

  enum class AdmissionVerdict {
    kAdmit,     // proceed; close with FinishRequest
    kShed,      // rejected — do not submit
    kDefer,     // retry after wait_cycles (up to admission_max_defer_retries)
    kThrottle,  // admitted, but charge wait_cycles of backpressure first
  };
  struct Admission {
    AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
    Cycles wait_cycles = 0;  // kDefer: retry-after gap; kThrottle: imposed wait
  };

  // Request-boundary admission decision for a request costing ~`bytes` of
  // copy work on `client`'s cgroup, taken at the submitter's clock `now`.
  // Overload = the cgroup's admitted-but-unfinished work exceeds the
  // config bounds, its scheduler backlog exceeds the byte bound, or the
  // engines reported fresh DMA ring-full fallbacks (OverloadSignals) within
  // the current back-off window. overload_policy = kNone always admits.
  // Admitted (and throttled) requests must be closed with FinishRequest;
  // decisions never split a request's copy work — admitted work runs
  // byte-for-byte as without the policy.
  Admission AdmitRequest(Client& client, uint64_t bytes, Cycles now);
  // Closes an admitted request whose work completes at `completion` on the
  // submitter's clock (under virtual-time queueing that may be in a later
  // prober's future; the inflight window keeps counting it until then).
  void FinishRequest(Client& client, uint64_t bytes, Cycles completion);
  // A submitter gave up on a kDefer'd request (retry budget exhausted):
  // account it as shed so offered = admitted + shed stays exact.
  void AbandonRequest(Client& client);

  // Engine-facing saturation counters (each engine holds a pointer).
  OverloadSignals& overload_signals() { return overload_signals_; }

  // --- manual-mode driving -------------------------------------------------------

  // One scheduling pick + copy slice on engine `engine_index`; returns bytes
  // served (0 = idle). Manual multi-engine drivers (benches, the differential
  // test) round-robin the index; the default keeps single-engine callers
  // unchanged.
  uint64_t RunOnce(size_t engine_index = 0);
  // Serves a specific client (csync pump path) on its home engine. Returns
  // bytes served.
  uint64_t Serve(Client& client, uint64_t max_bytes = UINT64_MAX);
  // Runs until no client has queued or pending work.
  void DrainAll();

  Engine& engine() { return *engines_[0]; }
  Engine& engine(size_t i) { return *engines_[i]; }
  ExecContext& engine_ctx() { return *engine_ctxs_[0]; }
  ExecContext& engine_ctx(size_t i) { return *engine_ctxs_[i]; }
  size_t engine_count() const { return engines_.size(); }
  // Engine a client's serves land on by default: its home shard (engines and
  // shards are 1:1 in the pool).
  size_t EngineIndexFor(const Client& client) const {
    return client.home_shard;
  }

  // Service-global submission sequence (DESIGN.md §10): submitters stamp
  // CopyTask::gseq with this before pushing, fixing the cross-client conflict
  // order at submission time — identical no matter which engine ingests or
  // executes first. The sequence counts as outstanding (it bounds tombstone
  // pruning) until the task registers in the ledger, ingests as private, or
  // the submitter retires it on a failed push (RetireGlobalSeq).
  uint64_t AllocateGlobalSeq() { return NextGlobalSeq(); }
  // Submitter-side release of a stamped sequence whose task never entered a
  // ring (push failure, synchronous fallback). No-op for gseq 0.
  void RetireGlobalSeq(uint64_t gseq) override;

  // --- threaded-mode control (§4.5.1) ----------------------------------------------

  void Start();
  void Stop();
  // copier_awaken(fd): wakes sleeping Copier threads (broadcast).
  void Awaken();
  // Submission-side hook: marks `client` runnable on its home shard and wakes
  // the shard's owner thread. `bytes_hint` (the submitted copy length, when
  // the caller knows it) feeds the backlog estimate steal-victim selection
  // uses. Safe to call redundantly — runnable marks dedup.
  void NotifyRunnable(Client& client, uint64_t bytes_hint = 0);
  // Scenario-driven polling: threads serve only while a scenario is active.
  void ScenarioBegin();
  void ScenarioEnd();
  bool scenario_active() const { return scenario_depth_.load(std::memory_order_acquire) > 0; }
  size_t active_threads() const { return active_threads_.load(std::memory_order_acquire); }
  size_t shard_count() const { return shards_.size(); }

  const CopierConfig& config() const { return options_.config; }
  const hw::TimingModel& timing() const { return *timing_; }
  Mode mode() const { return options_.mode; }

  // Fused-IPC routing observability (DESIGN.md §12): one send-time decision
  // per posted-capable transfer, recorded by the kernel glue
  // (CopierLinux::NoteFuseEvent). Snapshot type; live counters are relaxed
  // atomics. The fallback split distinguishes skb-pool pressure from
  // receiver-not-posted — invisible in engine stats before this.
  struct IpcFuseStats {
#define COPIER_IPC_FUSE_FIELD(event, name) uint64_t name = 0;
    COPIER_IPC_FUSE_COUNTERS(COPIER_IPC_FUSE_FIELD)
#undef COPIER_IPC_FUSE_FIELD
    uint64_t fallbacks() const {
      return fallback_not_posted + fallback_window_full + fallback_pool_exhausted +
             fallback_ring;
    }
    // Share of posted-capable sends that stayed on the single-hop fused path
    // (forwarded sends included). fallback_forward is not in the denominator:
    // a declined forward still lands fused in the window.
    double fused_rate() const {
      const uint64_t total = fused + forward_fused + fallbacks();
      return total == 0 ? 0.0 : static_cast<double>(fused + forward_fused) / total;
    }
  };
  void NoteIpcFuseEvent(simos::FuseEvent event);
  IpcFuseStats ipc_fuse_stats() const;

  // Aggregated engine stats (all threads).
  Engine::Stats TotalStats() const;
  // Scheduler counters snapshot, safe from any thread.
  SchedStats sched_stats() const;

  // Per-engine utilization snapshot (bench_fig14_utilization, bench_engines):
  // the engine's own counters plus the service-side steal traffic touching
  // its shard and its virtual clock.
  struct EngineUtil {
    Engine::Stats stats;
    uint64_t steals_in = 0;   // serves this engine ran for foreign-shard clients
    uint64_t steals_out = 0;  // serves of this shard's clients run by thieves
    Cycles now = 0;           // engine virtual clock (cycles of serving history)
  };
  EngineUtil engine_util(size_t i) const;

 private:
  // --- cross-engine coordination (CrossEngineHooks, DESIGN.md §10) ------------

  uint64_t NextGlobalSeq() override;
  bool DomainShared(uint64_t domain, const Client& self) override;
  bool LandedWriteStillNeeded(uint64_t domain, uint64_t gseq) override;
  void RegisterShared(Client& client, PendingTask& task) override;
  void UnregisterShared(Client& client, PendingTask& task) override;
  Status SettleForeign(Engine& thief, Client& client, PendingTask& task, uint64_t domain,
                       uint64_t start, size_t length, bool writes) override;

  // One dst/src piece of a live shared-visible task, or the tombstone of a
  // landed (completed, non-aborted) shared write. Tombstones keep cross-client
  // WAW suppression alive after the writer retires: a lower-gseq foreign
  // writer probing the range imports them into its own completed-write log.
  struct LedgerEntry {
    Client* client = nullptr;
    PendingTask* task = nullptr;  // null once landed (tombstone)
    uint64_t gseq = 0;
    uint64_t start = 0;
    size_t length = 0;
    bool is_write = false;  // a dst piece
    bool landed = false;
  };
  // One scheduler shard: a run queue plus the wakeup channel of the thread
  // that owns it. Thread i sleeps on shards_[i]'s channel; shard s (s >=
  // active_threads) is covered — and its wakeups redirected — via
  // s % active_threads, so every shard stays owned as auto-scaling moves
  // the active count.
  struct Shard {
    ShardRunQueue queue;
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::atomic<uint64_t> wake_seq{0};
    // Steal traffic by shard (engines and shards are 1:1): serves the owning
    // engine ran for foreign clients, and serves of this shard's clients run
    // by thieves.
    RelaxedCounter steals_in;
    RelaxedCounter steals_out;
  };

  // Live scheduler counters (the atomic mirror of SchedStats).
  struct AtomicSchedStats {
    COPIER_SCHED_COUNTERS(COPIER_RELAXED_COUNTER)
  };

  void ThreadMain(size_t index);
  // Unhooks the per-engine ATCache invalidation listeners a registration
  // installed on the client's address space (detach and teardown paths — the
  // space is owned outside the service and outlives it).
  void RemoveSpaceListeners(Client& client);
  // Scheduler: next client for engine `index` (nullptr = nothing runnable).
  // The returned client's `serving` flag is held by the caller. Threaded
  // mode pops the sharded run queues; manual mode scans the clients.
  Client* PickClient(size_t index);
  Client* PickClientSharded(size_t index);
  Client* PickClientLinear(size_t index);
  // Steals the highest-backlog runnable client from the fullest shard not
  // covered by thread `index`. Returns it with `serving` held, or nullptr.
  Client* StealClient(size_t index);
  // Idle-path safety net: marks runnable any client that has queued work but
  // no runnable mark (work pushed to rings without a NotifyRunnable — tests
  // and low-level users may do that legally).
  void ReconcileRunnable();
  // Wakes the thread currently owning `shard`.
  void WakeShard(size_t shard);
  // Serves a picked client on engine `index` and releases it: accounts the
  // bytes, clears `serving`, and — atomically with the release, under the
  // home shard's lock — re-queues the client if work remains (the covering
  // re-notify that makes dropped serving-CAS conflicts safe, DESIGN.md §7).
  uint64_t ServePicked(size_t index, Client& client, uint64_t max_bytes);
  void FinishServe(Client& client);
  void AccountService(Client& client, uint64_t bytes);

  Options options_;
  const hw::TimingModel* timing_;

  mutable std::mutex mu_;  // guards clients_ / cgroups_ lists + client_index_
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<uint64_t, Client*> client_index_;  // id -> client
  std::vector<std::unique_ptr<Cgroup>> cgroups_;
  Cgroup* root_cgroup_ = nullptr;
  uint64_t next_client_id_ = 1;

  // Engine pool (DESIGN.md §10): `engine_count` copier instances, each owning
  // a disjoint slice of the shared DMA channel pool. Index 0 doubles as the
  // default manual-mode engine.
  std::unique_ptr<hw::DmaChannelPool> dma_pool_;
  std::vector<std::unique_ptr<ExecContext>> engine_ctxs_;
  std::vector<std::unique_ptr<Engine>> engines_;

  // Shared-range ledger (DESIGN.md §10). Lock order: mu_ before ledger_mu_;
  // ledger_mu_ is never held while an engine runs (settles happen after the
  // collection phase releases it), only across entry mutation and victim
  // serving-claims.
  std::atomic<uint64_t> next_gseq_{1};  // 0 = unstamped
  mutable std::mutex ledger_mu_;
  std::unordered_map<uint64_t, std::vector<LedgerEntry>> ledger_;  // domain ->
  std::unordered_map<uint64_t, Client*> domain_owner_;             // asid -> owner
  std::unordered_set<uint64_t> shared_domains_;  // sticky: foreign client seen
  // Sequences stamped but not yet attached: allocated by NextGlobalSeq and
  // neither registered in the ledger nor retired. Their minimum bounds
  // tombstone (and completed-write) pruning — a task stamped at submission
  // may probe the ledger only after a ring traversal, and a tombstone above
  // its gseq must still be there when it does.
  std::set<uint64_t> stamped_live_;
  // Lowest gseq that may still execute or probe service-wide: min over
  // stamped-but-unattached sequences and live (non-landed) ledger entries.
  // Requires ledger_mu_.
  uint64_t MinOutstandingSeqLocked() const;

  // One shard per potential thread. Lock order: mu_ before any
  // Shard::queue.mu; never the reverse. Shard queue locks never nest.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Threaded mode.
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> active_threads_{0};
  std::atomic<int> scenario_depth_{0};

  // Overload admission control (DESIGN.md §13): engine saturation feedback
  // plus the back-off window it arms. ring_seen_ is the high-water mark of
  // ring_full_events already folded into a back-off; ring_backoff_credits_
  // counts admission decisions the current window still covers.
  OverloadSignals overload_signals_;
  std::atomic<uint64_t> ring_seen_{0};
  std::atomic<uint64_t> ring_backoff_credits_{0};
  mutable RelaxedCounter ring_backoff_events_;

  mutable AtomicSchedStats sched_stats_;
  // Doorbell count (NotifyRunnable calls), service-wide: the vectored
  // submission path's O(1)-per-syscall claim is measured against this.
  mutable RelaxedCounter notify_calls_;
  // Fused-IPC routing counters (IpcFuseStats mirror), indexed by FuseEvent.
#define COPIER_IPC_FUSE_ONE(event, name) +1
  static constexpr size_t kFuseEventCount = 0 COPIER_IPC_FUSE_COUNTERS(COPIER_IPC_FUSE_ONE);
#undef COPIER_IPC_FUSE_ONE
  mutable RelaxedCounter fuse_events_[kFuseEventCount];
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_SERVICE_H_
