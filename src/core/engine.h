// Engine — the single-threaded task-processing core of the Copier service.
//
// One Engine instance backs one Copier (k)thread. A service (service.h) owns
// one or more Engines and drives them from real threads, or — for tests and
// the virtual-time benchmark harness — from the caller in manual mode.
//
// Responsibilities, each mapping to a design section of the paper:
//   * Ingestion with cross-queue Barrier Tasks — order dependency (§4.2.1):
//     k-mode entries are consumed bracket-by-bracket; a BarrierEnter bounds
//     how far the u-mode queue may be drained before the bracket's tasks.
//   * Sync Task processing — task promotion / out-of-order execution (§4.1),
//     k-mode Sync Queue served before u-mode (§4.2.2), and explicit aborts
//     (§4.4).
//   * Data-dependency resolution (§4.2.2): before a byte range of a task
//     executes, conflicting ranges (RAW/WAW/WAR) of earlier pending tasks
//     execute first — except RAW producers, which layered copy absorption
//     (§4.4) reads *through* instead of executing.
//   * Hardware dispatch (§4.3): tasks split into physically contiguous
//     subtasks; large tasks i-piggyback DMA onto AVX; small adjacent tasks
//     fuse into e-piggyback rounds; segment completion times respect both
//     units' clocks.
//   * Proactive fault handling (§4.5.4): user ranges are translated, faulted
//     in and pinned before the copy; unresolvable faults drop the task, fail
//     its descriptor, and signal the process.
#ifndef COPIER_SRC_CORE_ENGINE_H_
#define COPIER_SRC_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/relaxed_counter.h"
#include "src/common/status.h"
#include "src/core/atcache.h"
#include "src/core/client.h"
#include "src/core/config.h"
#include "src/hw/dma_channel_pool.h"
#include "src/hw/timing_model.h"

namespace copier::core {

class Engine;

// Overload feedback sink (DESIGN.md §13): engines report saturation events —
// today DMA ring-full doorbell bounces, the moment "silently eat it on CPU"
// becomes visible — into a service-owned instance; admission control samples
// the counter and backs off while new events keep appearing.
struct OverloadSignals {
  RelaxedCounter ring_full_events;
};

// Cross-engine coordination surface (DESIGN.md §10). One Engine is
// single-threaded by construction; when a service runs a pool of them,
// conflicts between *clients* (shared kernel buffers, foreign-space writes)
// can span engines. The service implements these hooks over its shared range
// ledger; a null hooks pointer (pool disabled) makes every cross-engine path
// a no-op — bit-for-bit the single-engine behavior.
class CrossEngineHooks {
 public:
  virtual ~CrossEngineHooks() = default;

  // Service-global submission sequence, shared with the submitter-side
  // stamping (CopyTask::gseq) so ingestion-assigned fallbacks interleave
  // consistently. An allocated sequence is *outstanding* — it may still name
  // a not-yet-ingested task that will probe the ledger — until it is either
  // registered (RegisterShared) or retired (RetireGlobalSeq); tombstone
  // pruning is bounded by the minimum outstanding sequence.
  virtual uint64_t NextGlobalSeq() = 0;

  // Declares a stamped sequence dead: its task was ingested as private (will
  // never probe the ledger), dropped at validation, or never entered a ring
  // (failed push, synchronous fallback). No-op for gseq 0 (unstamped).
  virtual void RetireGlobalSeq(uint64_t gseq) = 0;

  // True while the cross-engine protocol still needs a *landed* write at
  // `gseq` into `domain` kept in the writer's completed-write log: the domain
  // is shared and a lower-gseq task may still be outstanding service-wide.
  // Covers writes that landed before their domain turned shared (never
  // registered, so no ledger tombstone exists); SettleForeign consults the
  // claimed owner's log for exactly these.
  virtual bool LandedWriteStillNeeded(uint64_t domain, uint64_t gseq) = 0;

  // True when a client other than `self` has ranges registered in `domain`
  // (an address-space asid): own-space tasks of that domain must then join
  // the shared ledger too.
  virtual bool DomainShared(uint64_t domain, const Client& self) = 0;

  // Registers / unregisters the dst and src pieces of a shared-visible task
  // in the ledger. Registration happens at ingestion (AcceptTask);
  // unregistration at the Done transition (OnTaskDone). Landed writes stay
  // as tombstones for cross-client dead-write suppression until no live task
  // with a lower gseq remains.
  virtual void RegisterShared(Client& client, PendingTask& task) = 0;
  virtual void UnregisterShared(Client& client, PendingTask& task) = 0;

  // Orders the window [start, start+length) of `domain`, accessed by `task`
  // (writing it when `writes`), against foreign clients' conflicting ranges:
  // executes every conflicting foreign task with a lower gseq (a targeted
  // steal run on `thief`), and imports landed foreign writes with a higher
  // gseq into `client`'s completed-write log so the engine's own dead-write
  // suppression skips those bytes. Returns kUnavailable when a foreign
  // serving claim could not be taken (the caller defers and retries).
  virtual Status SettleForeign(Engine& thief, Client& client, PendingTask& task,
                               uint64_t domain, uint64_t start, size_t length,
                               bool writes) = 0;
};

// Engine counters, one X(name) entry each, in one list. Every entry becomes a
// uint64_t field of Engine::Stats, a RelaxedCounter of the engine's live
// mirror, a line of Engine::stats() and a term of CopierService::TotalStats()'s
// cross-engine sum, so adding a counter is a one-line change. Comments in the
// list are /* */: a // comment ending in a backslash would splice the next
// entry into the comment.
#define COPIER_ENGINE_COUNTERS(X)                                                 \
  X(tasks_ingested)                                                               \
  X(tasks_completed)                                                              \
  X(tasks_dropped) /* proactive fault handling failures */                        \
  X(tasks_aborted)                                                                \
  X(barriers_processed)                                                           \
  X(sync_promotions)                                                              \
  X(bytes_copied)   /* bytes physically moved by this engine */                   \
  X(bytes_absorbed) /* bytes short-circuited past an intermediate */              \
  X(avx_bytes)                                                                    \
  /* DMA accounting is split at the submission/completion boundary so           \
     observers can compute genuinely in-flight work (submitted - completed)      \
     while rounds are parked (DESIGN.md §9). */                                   \
  X(dma_bytes_submitted)                                                          \
  X(dma_bytes_completed)                                                          \
  X(dma_batches_submitted)                                                        \
  X(dma_batches_completed)                                                        \
  /* Ring-full submissions that fell back to the CPU (the failed attempt is      \
     still charged: descriptors were written before the doorbell bounced). */    \
  X(dma_ring_full_fallbacks)                                                      \
  /* Engine-thread cycles busy-waiting on a DMA completion: the naive-DMA        \
     ablation (enable_piggyback = false) submits and waits per subtask;          \
     piggybacked rounds park instead and never stall. */                         \
  X(dma_stall_cycles)                                                             \
  /* Cycles spent force-settling or idle-advancing past parked batches           \
     (barrier/csync drains, dependency settles, end-of-work reaps). */           \
  X(dma_drain_wait_cycles)                                                        \
  X(dma_rounds_parked) /* rounds returned with DMA in flight */                   \
  X(kfuncs_run)                                                                   \
  X(ufuncs_queued)                                                                \
  X(lazy_absorbed_bytes)                                                          \
  /* Fused IPC fast path (DESIGN.md §12): single-hop transfers that skipped      \
     the intermediate kernel buffer. fused_ipc_bytes counts exactly the bytes    \
     that landed through a fused task (each such byte would have been            \
     physically moved twice on the two-step path). */                            \
  X(fused_ipc_tasks)                                                              \
  X(fused_ipc_bytes)                                                              \
  /* Coordination-lookup observability (pending-range index probes). */          \
  X(dep_probes)        /* dependency/absorption/abort lookups issued */           \
  X(dep_tasks_scanned) /* candidate tasks examined across all probes */           \
  /* Submission-path observability (entries, scatter-gather batches). */         \
  X(submit_entries) /* copy-queue Copy entries ingested */                        \
  X(submit_batches) /* of those, scatter-gather (vectored) tasks */               \
  /* Engine-pool observability (DESIGN.md §10). serve_cycles is the virtual      \
     time ServeClient spends working: it leaves out the clock jumps to a         \
     task's submit time and the idle wait for parked DMA at the end of a         \
     serve (that wait is in dma_drain_wait_cycles). */                           \
  X(serve_cycles)                                                                 \
  X(cross_dep_probes)      /* shared-ledger windows probed */                     \
  X(cross_dep_settles)     /* foreign task ranges force-landed here */            \
  X(cross_dep_defers)      /* probes bounced off a held foreign client */         \
  X(cross_dep_wait_cycles) /* cycles synced to foreign completions */

class Engine {
 public:
  // Snapshot of the engine's counters; see stats(). The live counters are
  // relaxed atomics (AtomicStats) so observers — CopierService::TotalStats,
  // benches — can read them while the owning Copier thread keeps serving.
  struct Stats {
    COPIER_ENGINE_COUNTERS(COPIER_COUNTER_FIELD)
    // Engine-clock time of the most recent KFUNC dispatch (max across engines
    // in TotalStats). The serve harness differences this against the request's
    // submit time for per-request copy-use *window* attribution — first
    // submit → last kfunc — alongside end-to-end latency.
    uint64_t last_kfunc_cycles = 0;
    // Always 0: the remap tier they counted is gone (DESIGN.md §11); kept
    // only because perfbench's layer table still reads them.
    uint64_t remapped_bytes = 0;
    uint64_t remap_cow_breaks = 0;
    // Service-wide fields, filled in by CopierService::TotalStats (0 in a
    // single engine's stats()).
    // Send-time fallbacks of the fused IPC path to two-step (see
    // IpcFuseStats for the breakdown).
    uint64_t fuse_fallbacks = 0;
    uint64_t notify_calls = 0;  // NotifyRunnable doorbells
    // Overload admission control (DESIGN.md §13), from the per-cgroup
    // decision counters — admitted + shed + deferred-to-death sum to the
    // requests offered through AdmitRequest.
    uint64_t admission_admitted = 0;
    uint64_t admission_shed = 0;
    uint64_t admission_deferred = 0;         // defer verdicts issued (retries count)
    uint64_t admission_throttled = 0;        // throttle verdicts issued
    uint64_t admission_throttle_cycles = 0;  // total backpressure wait imposed
    uint64_t overload_ring_backoffs = 0;     // admission back-offs from ring-full feedback
  };

  // Operates a slice of a service-owned channel pool (disjoint per engine, so
  // channel state stays single-threaded), charging `ctx` and reporting
  // saturation into `overload`. CopierService builds every engine.
  Engine(const CopierConfig& config, const hw::TimingModel* timing, ExecContext* ctx,
         hw::DmaChannelSlice dma, OverloadSignals* overload);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Serves one client: drains sync queues, ingests copy queues, executes up
  // to `max_bytes` of pending work (a copy slice, §4.5.3). Returns the bytes
  // of copy length served (the scheduler's resource unit, §4.5.2).
  uint64_t ServeClient(Client& client, uint64_t max_bytes);

  // Runs until the client has no queued or pending work (csync_all, tests).
  void DrainClient(Client& client);

  // Executes the pending ranges needed to make [addr, addr+length) ready —
  // the service-side reaction to a Sync Task (also used directly in
  // single-threaded mode when csync finds segments unready).
  void PromoteRange(Client& client, const MemRef& addr, size_t length);

  // Cross-engine targeted steal (DESIGN.md §10): force-lands every live task
  // of `client` with gseq < `gseq_bound` whose dst or src pieces overlap
  // [start, start+length) of `domain`. Runs on *this* (the thief) engine
  // while the caller holds the client's serving claim; never retires pending
  // entries — the owner may be mid-iteration over them up-stack.
  Status SettleSharedRange(Client& client, uint64_t domain, uint64_t start, size_t length,
                           uint64_t gseq_bound);

  // Installs the service's cross-engine coordination hooks (null = disabled).
  void set_cross(CrossEngineHooks* cross) { cross_ = cross; }

  ExecContext* ctx() { return ctx_; }
  ATCache& atcache() { return atcache_; }
  hw::DmaChannelSlice& dma() { return dma_; }
  // Coherent snapshot of the counters, safe from any thread.
  Stats stats() const;
  const CopierConfig& config() const { return config_; }

 private:
  struct Subtask {
    uint8_t* dst = nullptr;
    const uint8_t* src = nullptr;
    size_t length = 0;
    PendingTask* owner = nullptr;
    size_t task_offset = 0;  // byte offset of this subtask within the task
    bool dma_eligible = false;
    bool on_dma = false;  // selected for the round's DMA batch (ExecuteRound)
    // Translation work owed if this subtask goes to DMA (§4.3 ATCache): CPU
    // copies translate through the MMU for free; DMA needs explicit VA->PA.
    uint32_t pages_cached = 0;    // translations served by the ATCache
    uint32_t pages_uncached = 0;  // page-table walks (~240 cycles each)
  };

  // --- ingestion --------------------------------------------------------------
  void IngestClient(Client& client);
  void IngestPair(Client& client, QueuePair& pair);
  void AcceptTask(Client& client, QueuePair& pair, CopyTask task, bool kernel_mode);
  void ProcessSyncQueues(Client& client);
  void HandleSyncTask(Client& client, const SyncTask& sync);
  // Applies abort requests whose dependents have drained (§4.4).
  void ApplyDeferredAborts(Client& client);

  // --- execution ---------------------------------------------------------------
  uint64_t ExecutePending(Client& client, uint64_t budget);
  // Executes [offset, offset+length) of `task` (clipped to unfinished
  // segments), resolving dependencies first. Depth guards recursion.
  // `must_land` is the barrier-drain rule (DESIGN.md §9): promotion/csync and
  // dependency-resolution calls force any overlapping dma-in-flight bytes to
  // settle; plain FIFO passes skip them instead (they land via the reaper).
  Status ExecuteTaskRange(Client& client, PendingTask& task, size_t offset, size_t length,
                          int depth, bool must_land);
  Status ResolveDependencies(Client& client, PendingTask& task, size_t offset, size_t length,
                             int depth);
  // Physically copies [offset, offset+length) of the task (sources resolved
  // through layered absorption) and marks progress.
  Status CopyRange(Client& client, PendingTask& task, size_t offset, size_t length, int depth);

  // Layered absorption (§4.4): maps [src_offset, +length) of `task`'s source
  // onto the memory that holds the *latest* data, possibly through chains of
  // earlier pending tasks. Appends (ref, length) pieces to `out`.
  struct SourcePiece {
    MemRef ref;
    size_t length = 0;
  };
  void ResolveSources(Client& client, PendingTask& task, size_t src_offset, size_t length,
                      int depth, std::vector<SourcePiece>* out);
  // Absorption worker for one contiguous source piece (`src` is a piece of
  // `task`'s source side covering `length` bytes).
  void ResolveSourcesContig(Client& client, PendingTask& task, const MemRef& src, size_t length,
                            int depth, std::vector<SourcePiece>* out);

  // --- hardware dispatch (§4.3) -------------------------------------------------
  struct HostRun {
    uint8_t* host = nullptr;
    size_t length = 0;
  };
  struct HostRunExtra {
    uint32_t pages_cached = 0;
    uint32_t pages_uncached = 0;
  };
  // Longest host-contiguous run at `ref` (proactively faulting user pages).
  StatusOr<HostRun> ResolveHostRun(const MemRef& ref, size_t max_length, bool for_write,
                                   HostRunExtra* extra);
  // Builds physically contiguous subtasks for [offset, offset+length) of the
  // task given resolved source pieces; pins user pages (proactive faults).
  Status BuildSubtasks(Client& client, PendingTask& task, size_t offset,
                       const std::vector<SourcePiece>& sources, std::vector<Subtask>* out);
  // Executes one piggyback round over the subtasks; marks progress per owner.
  void ExecuteRound(Client& client, std::vector<Subtask>& subtasks);

  // Resolves one user page to a host pointer through the ATCache; performs
  // proactive fault handling. Returns the host pointer for `va`'s page and
  // reports whether the translation hit the ATCache via `*cached`.
  StatusOr<uint8_t*> ResolveUserPage(simos::AddressSpace* space, uint64_t va, bool for_write,
                                     bool* cached);

  // Security checks (§4.5.4): u-mode tasks may only touch their own space.
  Status ValidateTask(Client& client, const CopyTask& task, bool kernel_mode) const;

  // --- asynchronous DMA completion (DESIGN.md §9) -----------------------------
  // Lands every parked batch whose completion time has passed: marks progress
  // at the batch's completion time, fires completions, frees the parked
  // ranges. Returns the bytes landed.
  uint64_t ReapParkedDma(Client& client, Cycles now);
  // Forces the parked batches holding bytes of `task` overlapping task-local
  // [offset, offset+length) to land, advancing the clock to their completion
  // (the barrier-drain rule: conflicting or synchronizing accesses may not
  // proceed past in-flight hardware).
  void SettleParkedRange(Client& client, PendingTask& task, size_t offset, size_t length);
  void SettleTaskParked(Client& client, PendingTask& task) {
    SettleParkedRange(client, task, 0, task.task.length);
  }
  // True when a pending task ordered before `order` still has bytes on a DMA
  // channel. FIFO-ordered completions (and SG segment kfuncs) defer behind
  // such a task: handlers fire in submission order, so a later task's handler
  // must not overtake an earlier in-flight one — the socket paths reassemble
  // byte streams in handler-delivery order. O(1): reads the minimum of
  // client.parked_orders.
  bool HasEarlierParked(const Client& client, uint64_t order) const;
  // Fires deferred handlers in task order once the tasks blocking them have
  // landed: walks pending from the retirement frontier, firing credited SG
  // prefixes and completion handlers, stopping at the first task still in
  // flight.
  void FireOrderedCompletions(Client& client, Cycles when);

  void MarkProgress(Client& client, PendingTask& task, size_t offset, size_t length,
                    Cycles when);
  // `fifo_ordered` marks completions reached through the plain FIFO pass:
  // they defer while an earlier-ordered task has parked bytes (see
  // HasEarlierParked) and fire later via FireOrderedCompletions. Promotion,
  // dependency resolution and abort paths complete immediately.
  void CompleteTask(Client& client, PendingTask& task, bool fifo_ordered = false);
  // Cross-engine settle support (DESIGN.md §10): a settle-landed task whose
  // predecessor has not fired defers its handler (HasEarlierUnfired); the
  // predecessor's completion (or drop) cascades the done-but-unfired suffix
  // in task order, keeping KFUNC order independent of the engine-pool size.
  // Both read the client's retirement frontier (client.fire_frontier).
  bool HasEarlierUnfired(const Client& client, uint64_t order) const;
  void FireDeferredSuccessors(Client& client);
  void DropTask(Client& client, PendingTask& task, const Status& reason);
  // Pops fired tasks off the front of `pending` (sweeping the whole list only
  // when a task retired out of order) and prunes the completed-write log.
  void RetireDone(Client& client);

  // Finds the latest-ordered unfinished earlier task writing the memory at
  // `ref` (the absorption producer). On a hit, *overlap_offset/*overlap_length
  // describe the overlap within [ref, ref+length) and *producer_local is the
  // producer-local byte offset of the overlap's first byte (piece-aware: for
  // a scatter-gather producer this maps through its segment list).
  PendingTask* FindProducer(Client& client, const PendingTask& task, const MemRef& ref,
                            size_t length, size_t* overlap_offset, size_t* overlap_length,
                            size_t* producer_local);

  // Scatter-gather segment accounting: credits bytes landing at task-local
  // [offset, offset+length) against the covering segments and fires each
  // segment's KFUNC exactly once when its remaining byte count hits zero.
  void CreditSgSegments(Client& client, PendingTask& task, size_t offset, size_t length,
                        Cycles when);
  // Fires the longest fully-credited segment prefix, in segment order.
  void FireReadySgSegments(Client& client, PendingTask& task, Cycles when);
  // Fires every still-unfired segment KFUNC (task completion / abort — the
  // kernel buffers must be reclaimed exactly as the per-op path would).
  void FireRemainingSgSegments(Client& client, PendingTask& task, Cycles when);

  // --- pending-range interval index maintenance and fused-path probes ---
  void IndexInsert(Client& client, PendingTask& task);
  void IndexErase(Client& client, PendingTask& task);
  // Done transition: drops the task's index entries and live gseq and logs
  // its destination in client.completed_writes (non-aborted tasks), exactly
  // once per task. Every path that makes a task Done calls it.
  void OnTaskDone(Client& client, PendingTask& task);
  // True when any live pending task other than `self` has a data dependency
  // (RAW/WAW/WAR, either direction) with `self`'s ranges (e-piggyback gate).
  bool HasAnyConflict(Client& client, const PendingTask& self);
  // True when an unfinished earlier-ordered task writes bytes `reader`'s
  // source names (a live RAW producer — such tasks need the ordered path).
  bool HasEarlierLiveWriter(Client& client, const PendingTask& reader);

  // --- cross-engine coordination (DESIGN.md §10) ------------------------------
  // True when any piece of the task can overlap another client's ranges
  // (kernel host memory, a foreign space, or a domain with foreign activity).
  bool TaskIsSharedVisible(Client& client, const PendingTask& task) const;
  // Probes the shared ledger for the dst (and src) windows of task-local
  // [offset, offset+length): settles conflicting lower-gseq foreign work,
  // imports higher-gseq landed foreign writes. kUnavailable = defer.
  Status CrossSettle(Client& client, PendingTask& task, size_t offset, size_t length);
  // True when every byte of task-local [offset, offset+length) has landed
  // (progress-descriptor check; lets settle paths skip no-op executions
  // without charging the clock).
  bool RangeLanded(const PendingTask& task, size_t offset, size_t length) const;

  // Live counters: the atomic mirror of Stats (same names, so counting sites
  // read like plain integer code).
  struct AtomicStats {
    COPIER_ENGINE_COUNTERS(COPIER_RELAXED_COUNTER)
    // Monotonic max, not a counter: single writer (the engine thread), so a
    // relaxed load-compare-store suffices.
    std::atomic<uint64_t> last_kfunc_cycles{0};
  };

  void NoteKfuncTime(Cycles when) {
    if (when > stats_.last_kfunc_cycles.load(std::memory_order_relaxed)) {
      stats_.last_kfunc_cycles.store(when, std::memory_order_relaxed);
    }
  }

  const CopierConfig& config_;
  const hw::TimingModel* timing_;
  ExecContext* ctx_;
  ATCache atcache_;
  hw::DmaChannelSlice dma_;  // this engine's disjoint slice of the service pool
  CrossEngineHooks* cross_ = nullptr;
  OverloadSignals* overload_;
  AtomicStats stats_;
  // Clock advance the engine spent idle rather than serving: jumps to a
  // task's submit time and end-of-serve waits for parked DMA. ServeClient
  // leaves it out of serve_cycles. Engine thread only.
  Cycles idle_cycles_ = 0;
  // The pair whose tasks are currently being accepted (handler routing).
  QueuePair* current_pair_ = nullptr;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ENGINE_H_
