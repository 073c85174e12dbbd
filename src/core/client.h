// Client — one consumer of the Copier service (§4.5): a user process, or an
// OS service with a standalone context.
//
// Every client owns two sets of CSH Queues (§4.2.1): u-mode queues written by
// the application/library and k-mode queues written by kernel services
// executing in the process's context (syscalls). Low-level users may create
// additional queue sets (per-thread queues, §5.1.1), addressed by fd.
//
// The members under "service-side state" are owned by the Copier thread that
// currently serves the client and are not touched by submitters.
#ifndef COPIER_SRC_CORE_CLIENT_H_
#define COPIER_SRC_CORE_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/common/ring_buffer.h"
#include "src/core/config.h"
#include "src/core/descriptor.h"
#include "src/core/range_index.h"
#include "src/core/task.h"
#include "src/simos/process.h"

namespace copier::core {

class Cgroup;

// One set of Copy/Sync/Handler queues.
struct QueueSet {
  explicit QueueSet(size_t capacity)
      : copy_q(capacity), sync_q(capacity), handler_q(capacity) {}

  MpscRingBuffer<CopyQueueEntry> copy_q;
  MpscRingBuffer<SyncTask> sync_q;
  MpscRingBuffer<HandlerTask> handler_q;
};

// A u-mode/k-mode queue pair whose cross-queue order is tracked via Barrier
// Tasks. The default pair has fd 0; per-thread pairs get fresh fds.
struct QueuePair {
  explicit QueuePair(size_t capacity) : user(capacity), kernel(capacity) {}

  QueueSet user;
  QueueSet kernel;

  // --- service-side ingestion state (§4.2.1) ---
  uint64_t user_ingested = 0;   // count of u-mode Copy Queue entries consumed
  bool kernel_bracket_open = false;  // between BarrierEnter and BarrierExit
  uint64_t bracket_user_bound = 0;   // u entries < bound precede the bracket
};

// A Copy Task accepted into the service's pending list, in ingestion order.
struct PendingTask {
  CopyTask task;
  bool kernel_mode = false;
  bool promoted = false;   // raised by a Sync Task (§4.1)
  bool aborted = false;    // explicit abort (§4.4), effective
  bool abort_requested = false;  // abort deferred until dependents finish
  uint64_t order = 0;      // global ingestion sequence within the client

  // Service-global submission sequence (DESIGN.md §10): total order across
  // clients for cross-engine conflict resolution. Monotone with `order`
  // within one client (per-client submission order is ingestion order).
  uint64_t gseq = 0;
  // True when any dst/src piece can overlap another client's tasks: kernel
  // host memory, a foreign address space, or the own space of a domain some
  // foreign client has ranges registered in. Only shared-visible tasks pay
  // the cross-engine ledger probe.
  bool shared_visible = false;

  // Progress descriptor: the task's own descriptor, or a service-allocated
  // internal one when the submitter did not provide any (e.g. send()).
  // Progress bits live at [progress_offset, progress_offset + task.length) of
  // the descriptor's byte space.
  Descriptor* progress = nullptr;
  size_t progress_offset = 0;
  std::unique_ptr<Descriptor> internal_progress;

  // Queue pair the task arrived on (UFUNC handlers route back to its u-mode
  // Handler Queue).
  QueuePair* origin = nullptr;

  size_t bytes_done = 0;
  bool handler_fired = false;

  // Range-index bookkeeping: whether this task's dst/src entries are live in
  // client.range_index, and whether its Done transition (index erase +
  // completed-write log) has already been processed.
  bool in_range_index = false;
  bool done_processed = false;

  // Scatter-gather accounting (task.sg != nullptr): bytes still outstanding
  // and whether the per-segment KFUNC has fired, per segment. Handlers fire
  // in segment order — the op-list is a stream (skbs of one syscall), so the
  // firing prefix only advances when every earlier segment has landed.
  std::vector<size_t> sg_remaining;
  std::vector<bool> sg_fired;
  size_t sg_next_fire = 0;

  // Task-local [start, end) byte ranges currently in flight on a DMA channel
  // (DESIGN.md §9): submitted but not yet reaped. Parked bytes are excluded
  // from execution (CopyRange) and do not count toward bytes_done until the
  // reap lands them; any conflicting access must settle them first.
  std::vector<std::pair<size_t, size_t>> dma_parked;
  size_t dma_parked_bytes() const {
    size_t n = 0;
    for (const auto& [s, e] : dma_parked) {
      n += e - s;
    }
    return n;
  }

  bool Done() const { return bytes_done >= task.length || aborted; }
};

class Client {
 public:
  Client(uint64_t id, simos::Process* process, const CopierConfig& config)
      : id_(id), process_(process), config_(&config) {
    queue_pairs_.push_back(std::make_unique<QueuePair>(config.queue_capacity));
  }

  uint64_t id() const { return id_; }
  simos::Process* process() { return process_; }
  simos::AddressSpace* space() { return process_ != nullptr ? &process_->mem() : nullptr; }

  QueuePair& default_pair() { return *queue_pairs_[0]; }
  QueuePair& pair(int fd) { return *queue_pairs_[static_cast<size_t>(fd)]; }
  size_t pair_count() const { return queue_pairs_.size(); }

  // Creates an additional queue pair (per-thread queues); returns its fd.
  int CreateQueuePair() {
    queue_pairs_.push_back(std::make_unique<QueuePair>(config_->queue_capacity));
    return static_cast<int>(queue_pairs_.size() - 1);
  }

  // --- service-side state ---

  // Pending (ingested, incomplete) tasks in dependency order.
  std::deque<std::unique_ptr<PendingTask>> pending;
  uint64_t next_order = 0;
  uint64_t next_task_id = 1;

  // Interval index over the live (non-Done) tasks in `pending`: one dst and
  // one src entry per task. Maintained by the Engine (AcceptTask inserts,
  // the Done transition erases, RetireDone prunes).
  RangeIndex range_index;

  // Number of live tasks with an unapplied abort request; lets
  // ApplyDeferredAborts skip its pending-list walk when there is nothing to
  // do (the common case — it runs after every ExecutePending pass).
  size_t pending_abort_requests = 0;

  // Destinations of recently *completed* tasks, kept while any still-pending
  // task is ordered before them: an earlier task executing late must not
  // overwrite a newer completed write (WAW), even though the newer task is no
  // longer live. Written at each task's Done transition and by cross-engine
  // imports of foreign landed writes (DESIGN.md §10); pruned in RetireDone.
  LandedWriteLog completed_writes;

  // --- in-order retirement frontier (DESIGN.md "Pending-range interval
  // index") ---
  //
  // Handlers fire in `order`, so pending[0, fire_frontier) have all fired and
  // pending[fire_frontier] is the oldest task whose handler has not: "does an
  // earlier task still owe a handler?" is one comparison against it. Every
  // task before the frontier is Done, so it is also where ExecutePending
  // starts scanning. Maintained by the Engine (CompleteTask and DropTask
  // advance it, RetireDone shifts it as it pops retirees off the front).
  size_t fire_frontier = 0;
  PendingTask* frontier() const {
    return fire_frontier < pending.size() ? pending[fire_frontier].get() : nullptr;
  }
  void AdvanceFireFrontier() {
    while (fire_frontier < pending.size() && pending[fire_frontier]->handler_fired) {
      ++fire_frontier;
    }
  }
  // Set when a task behind the frontier is dropped (its handler is skipped
  // out of order): RetireDone then sweeps the whole list once instead of
  // popping from the front only.
  bool retire_out_of_order = false;
  // gseqs of the accepted, not-yet-Done pending tasks. gseq is not monotone
  // in `order` (libcopier stamps it at submission, unstamped tasks draw it at
  // ingestion, and queue pairs ingest in turn), so the completed-write
  // pruning bound is this set's minimum rather than the frontier's gseq.
  std::multiset<uint64_t> live_gseqs;

  // In-flight DMA batches parked by asynchronous execution rounds (DESIGN.md
  // §9), in submission order. The completion time is captured at submission,
  // so reaping — possibly by a different engine after a steal — never touches
  // the submitting engine's channel state. Mutated only while `serving` is
  // held; dma_inflight_bytes mirrors the total for lock-free observers
  // (scheduler re-queue accounting, utilization benches).
  struct ParkedDma {
    Cycles completion_time = 0;
    uint64_t bytes = 0;
    uint64_t min_order = 0;  // lowest `order` among the segments' tasks
    struct Seg {
      PendingTask* task = nullptr;
      size_t offset = 0;  // task-local first byte
      size_t length = 0;
    };
    std::vector<Seg> segs;
  };
  std::deque<ParkedDma> parked_dma;
  // min_order of every batch in parked_dma: its minimum is the oldest task
  // with bytes still in flight (HasEarlierParked).
  std::multiset<uint64_t> parked_orders;
  std::atomic<uint64_t> dma_inflight_bytes{0};

  // Invalidation-listener tokens AttachProcess installed on the client's
  // space (one per engine ATCache); removed at detach / service teardown.
  std::vector<int> atcache_tokens;

  // Scheduler accounting (§4.5.3): total copy length served, CFS key.
  // Relaxed atomic: written by the serving thread, read by scheduler picks
  // and run-queue inserts on other threads.
  std::atomic<uint64_t> total_copy_length{0};
  Cgroup* cgroup = nullptr;

  // Claimed by the Copier thread currently serving this client: auto-scaling
  // shifts the client→thread assignment, so exclusivity is enforced here.
  std::atomic<bool> serving{false};

  // --- sharded-scheduler state (service.h) ---

  // Home shard: `id % shard_count`, fixed at attach. The client's runnable
  // marks always land on this shard's run queue; stealing moves a single
  // serve, never the home.
  size_t home_shard = 0;
  // True while the client sits in its home shard's run queue. Toggled under
  // that shard's lock; read lock-free to dedup runnable notifications.
  std::atomic<bool> runnable{false};
  // Set by DetachClient before teardown: suppresses re-notification.
  std::atomic<bool> detached{false};
  // Run-queue snapshot key (total_copy_length at insert); only touched under
  // the home shard's run-queue lock while `runnable`.
  uint64_t sched_key = 0;
  // Backlog estimate for steal-victim choice: bytes submitted (counted at
  // runnable notification) minus bytes served.
  std::atomic<uint64_t> submitted_bytes{0};
  std::atomic<uint64_t> served_bytes{0};
  uint64_t BacklogBytes() const {
    const uint64_t submitted = submitted_bytes.load(std::memory_order_relaxed);
    const uint64_t served = served_bytes.load(std::memory_order_relaxed);
    return submitted > served ? submitted - served : 0;
  }

  // Mirrors pending.size(); maintained by the Engine so HasQueuedWork can be
  // called from any thread while the serving thread mutates the deque.
  std::atomic<size_t> pending_count{0};

  // --- submitter-side syscall state (CopierLinux, §4.2.1) ---

  // Barrier bracket state of the in-flight syscall executing in this
  // process's context. Only the process's own thread reads or writes it
  // (trap enter/exit and Copy/CopyV all run on that thread), so it needs no
  // lock — this is what keeps concurrent processes from serializing on a
  // glue-global mutex during submission.
  struct KSyscallState {
    bool in_syscall = false;
    bool barrier_submitted = false;
  };
  KSyscallState ksyscall;

  // Drain waiters (SyncKernel in threaded mode): the serving thread signals
  // after a pass that leaves the client with no queued or pending work.
  std::mutex drain_mu;
  std::condition_variable drain_cv;

  bool HasQueuedWork() const {
    for (const auto& pair : queue_pairs_) {
      if (!pair->user.copy_q.Empty() || !pair->kernel.copy_q.Empty() ||
          !pair->user.sync_q.Empty() || !pair->kernel.sync_q.Empty()) {
        return true;
      }
    }
    return pending_count.load(std::memory_order_acquire) != 0;
  }

 private:
  uint64_t id_;
  simos::Process* process_;
  const CopierConfig* config_;
  std::vector<std::unique_ptr<QueuePair>> queue_pairs_;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_CLIENT_H_
