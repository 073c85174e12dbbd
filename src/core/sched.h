// ShardRunQueue — one scheduler shard's run queue of runnable clients (§4.5.3).
//
// Threaded mode's scheduler (service.h) keeps per-shard queues instead of
// scanning every client under a global mutex: each queue orders runnable
// cgroups by a share-weighted vruntime snapshot and, inside each cgroup,
// runnable clients by a total-copy-length snapshot, so a pick is O(log n)
// under the shard's lock.
//
// Keys are snapshots taken at insert time. A client's counters keep advancing
// while it waits, but every serve pops the client and re-inserts it with fresh
// keys, so staleness is bounded by one wait — the same bounded-staleness bet
// per-CPU CFS runqueues make. A cgroup's queue entry carries the vruntime
// snapshot of its *first* runnable insert and is refreshed once its bucket
// drains.
//
// Locking: all mutating/lookup calls require the shard's lock (`mu`, owned
// here so service code can hold it across pop + serving-CAS sequences);
// ApproxSize is a lock-free gauge for steal-victim selection.
#ifndef COPIER_SRC_CORE_SCHED_H_
#define COPIER_SRC_CORE_SCHED_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/core/cgroup.h"
#include "src/core/client.h"

namespace copier::core {

class ShardRunQueue {
 public:
  // Held by callers across Insert/Pop/Remove and the serving-CAS that follows
  // a pop (service.cc relies on pop+CAS being atomic under this lock).
  std::mutex mu;

  // Adds `client` to its cgroup's bucket with fresh key snapshots. Requires
  // mu. The caller owns the runnable-flag transition; a client must be
  // inserted at most once (service dedups via Client::runnable).
  void Insert(Client& client);

  // Pops the minimum-total-copy-length client of the minimum-vruntime cgroup
  // (the CFS-analogue pick, §4.5.3). Requires mu. nullptr when empty.
  Client* PopMin();

  // Pops the client with the largest backlog estimate (steal policy: a thief
  // wants the victim's hottest client, not its fairness-preferred one).
  // Linear in queued clients; only run on the idle path. Requires mu.
  Client* PopMaxBacklog();

  // Removes `client` if present (detach path). Requires mu.
  bool Remove(Client& client);

  bool Empty() const { return size_.load(std::memory_order_relaxed) == 0; }
  // Lock-free gauge for steal-victim selection (may lag the truth).
  size_t ApproxSize() const { return size_.load(std::memory_order_relaxed); }

 private:
  struct Bucket {
    // Clients keyed on (total_copy_length snapshot, pointer tiebreak).
    std::set<std::pair<uint64_t, Client*>> clients;
    // The vruntime snapshot this cgroup is filed under in groups_.
    uint64_t group_key = 0;
  };

  void EraseFromBucket(Bucket& bucket, Cgroup* group, Client& client);

  // Runnable cgroups keyed on (vruntime snapshot, pointer tiebreak).
  std::set<std::pair<uint64_t, Cgroup*>> groups_;
  // Holds exactly the cgroups with a queued client: a bucket is erased the
  // moment it drains, so this map (and the PopMaxBacklog scan over it) tracks
  // currently-runnable cgroups, not every cgroup ever seen.
  std::unordered_map<Cgroup*, Bucket> buckets_;
  std::atomic<size_t> size_{0};
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_SCHED_H_
