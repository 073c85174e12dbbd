// RangeIndex — ordered interval index over the live (non-Done) pending tasks
// of one client.
//
// Every coordination decision the Engine makes on the hot path — RAW/WAW/WAR
// dependency resolution (§4.2.2), layered-absorption producer lookup (§4.4),
// sync-driven promotion and abort matching (§4.1, §4.4) — is an interval
// question: "which live tasks touch [addr, addr+len) of this domain?".
// Answering it by scanning the whole pending list makes every lookup
// O(pending) and deep-queue workloads O(n²). This index answers it in
// O(log n + k), where k is the number of entries that actually overlap.
//
// Two entry sets are kept, one for destination ranges and one for source
// ranges of live pending tasks. Entries are keyed on (domain, address) packed
// into a single 128-bit coordinate so ranges from different address spaces
// never compare as neighbours. Each set is a treap augmented with the
// subtree-max interval end (a classic dynamic interval tree), giving
// O(log n) expected insert/erase and O(log n + k) overlap enumeration.
//
// Invariants (maintained by the Engine, see DESIGN.md "Pending-range
// interval index"):
//   * entries exist exactly for tasks in client.pending with !Done();
//   * a task contributes one kDst and one kSrc entry per contiguous piece of
//     each side — exactly one each for plain tasks, one per segment for the
//     scatter-gather side of a vectored task — inserted in AcceptTask and
//     erased at its Done transition (completion, abort, or drop);
//   * keys are (domain, start, order, end); `order` disambiguates tasks
//     naming identical ranges and `end` entries sharing a start and order, so
//     erase is exact and enumeration order is deterministic: ascending
//     (address, order).
//
// LandedWriteLog (below) reuses the same tree, keyed on the write's gseq
// instead of a task order, for the landed-write side of dead-write
// suppression.
#ifndef COPIER_SRC_CORE_RANGE_INDEX_H_
#define COPIER_SRC_CORE_RANGE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <tuple>

namespace copier::core {

struct PendingTask;

class RangeIndex {
 public:
  enum class Side : uint8_t { kDst = 0, kSrc = 1 };

  // One live interval, handed to ForEachOverlap callbacks. `start`/`length`
  // are the entry's own range (not clipped to the probe window).
  // `task_offset` is the task-local byte the entry starts at: 0 for a
  // contiguous task side, the segment's prefix offset for a scatter-gather
  // side (which contributes one entry per segment). An address `a` inside the
  // entry maps to task-local byte (a - start) + task_offset.
  struct Entry {
    PendingTask* task;
    uint64_t order;
    uint64_t start;
    size_t length;
    size_t task_offset;
  };

  RangeIndex() = default;
  ~RangeIndex();
  RangeIndex(const RangeIndex&) = delete;
  RangeIndex& operator=(const RangeIndex&) = delete;

  void Insert(Side side, uint64_t domain, uint64_t start, size_t length, uint64_t order,
              PendingTask* task, size_t task_offset = 0);
  // Erases the entry inserted under the same (side, domain, start, length,
  // order); no-op when absent.
  void Erase(Side side, uint64_t domain, uint64_t start, size_t length, uint64_t order);

  // Invokes fn(Entry) for every entry on `side` overlapping
  // [start, start + length) of `domain`, in ascending (address, order) order.
  // fn returning false stops the enumeration early. Returns the number of
  // entries fn was invoked on (the probe's candidate count).
  template <typename Fn>
  size_t ForEachOverlap(Side side, uint64_t domain, uint64_t start, size_t length,
                        Fn&& fn) const {
    if (length == 0) {
      return 0;
    }
    const Coord lo = Pack(domain, start);
    size_t touched = 0;
    Visit(roots_[static_cast<size_t>(side)], lo, lo + length, fn, &touched);
    return touched;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  // (domain, address) packed so interval arithmetic stays one-dimensional.
  // A range never crosses its domain's 2^64 boundary (task validation
  // rejects wrapping virtual ranges and host buffers cannot wrap).
  using Coord = unsigned __int128;

  static Coord Pack(uint64_t domain, uint64_t addr) {
    return (static_cast<Coord>(domain) << 64) | addr;
  }

  struct Node {
    Coord lo;      // (domain, start)
    Coord hi;      // lo + length
    Coord max_hi;  // max hi over this node's subtree (interval-tree augment)
    uint64_t order;
    size_t task_offset;
    PendingTask* task;
    uint32_t priority;
    Node* left = nullptr;
    Node* right = nullptr;
  };

  static bool KeyLess(Coord lo, uint64_t order, Coord hi, const Node& n) {
    return std::tie(lo, order, hi) < std::tie(n.lo, n.order, n.hi);
  }

  static void Update(Node* n);
  static Node* RotateLeft(Node* n);
  static Node* RotateRight(Node* n);
  static Node* InsertNode(Node* n, Node* fresh);
  static Node* EraseNode(Node* n, Coord lo, uint64_t order, Coord hi, bool* erased);
  static void FreeTree(Node* n);

  // Interval-tree walk: prunes subtrees whose max_hi ends at or before the
  // window, and right subtrees once keys pass the window's end.
  template <typename Fn>
  static bool Visit(const Node* n, Coord qlo, Coord qhi, Fn& fn, size_t* touched) {
    if (n == nullptr || n->max_hi <= qlo) {
      return true;
    }
    if (!Visit(n->left, qlo, qhi, fn, touched)) {
      return false;
    }
    if (n->lo >= qhi) {
      return true;  // this node and its whole right subtree start past the window
    }
    if (n->hi > qlo) {
      ++*touched;
      Entry entry{n->task, n->order, static_cast<uint64_t>(n->lo),
                  static_cast<size_t>(n->hi - n->lo), n->task_offset};
      if (!fn(entry)) {
        return false;
      }
    }
    return Visit(n->right, qlo, qhi, fn, touched);
  }

  uint32_t NextPriority() {
    prio_state_ ^= prio_state_ << 13;
    prio_state_ ^= prio_state_ >> 17;
    prio_state_ ^= prio_state_ << 5;
    return prio_state_;
  }

  Node* roots_[2] = {nullptr, nullptr};
  size_t size_ = 0;
  uint32_t prio_state_ = 0x9e3779b9u;  // deterministic treap rebalancing
};

// LandedWriteLog — destinations of one client's landed writes that a task
// still executing late must not overwrite (WAW dead-write suppression, §4.1).
//
// Entries are gseq-stamped (the service-global submission sequence), so the
// client's own retired writes and writes imported from foreign clients' landed
// tasks (cross-engine suppression, DESIGN.md §10) compare uniformly. The only
// question asked of the log is "which writes with gseq > g overlap
// [start, start + length) of this domain?", answered from a RangeIndex keyed
// (domain, start, gseq) in O(log n + k). A gseq-ordered set beside it holds
// each entry once — an identical re-import is a no-op — and lets pruning visit
// only the entries below the retirement bound.
class LandedWriteLog {
 public:
  struct Write {
    uint64_t gseq = 0;
    uint64_t domain = 0;
    uint64_t start = 0;
    size_t length = 0;

    bool operator<(const Write& o) const {
      return std::tie(gseq, domain, start, length) <
             std::tie(o.gseq, o.domain, o.start, o.length);
    }
  };

  // Records `w` unless an identical entry is already present. Zero-length
  // writes are ignored.
  void Insert(const Write& w) {
    if (w.length != 0 && writes_.insert(w).second) {
      index_.Insert(kSide, w.domain, w.start, w.length, w.gseq, nullptr);
    }
  }

  // Invokes fn(const Write&) for every logged write into `domain` with
  // gseq > `after_gseq` overlapping [start, start + length), in ascending
  // (address, gseq) order. fn returning false stops the walk.
  template <typename Fn>
  void ForEachLaterOverlap(uint64_t domain, uint64_t start, size_t length, uint64_t after_gseq,
                           Fn&& fn) const {
    index_.ForEachOverlap(kSide, domain, start, length, [&](const RangeIndex::Entry& e) {
      return e.order <= after_gseq || fn(Write{e.order, domain, e.start, e.length});
    });
  }

  bool AnyLaterOverlap(uint64_t domain, uint64_t start, size_t length,
                       uint64_t after_gseq) const {
    bool found = false;
    ForEachLaterOverlap(domain, start, length, after_gseq, [&found](const Write&) {
      found = true;
      return false;
    });
    return found;
  }

  // Drops every write with gseq < `live_bound` (every write when it is
  // UINT64_MAX) unless keep(write) says it is still needed.
  template <typename Keep>
  void Prune(uint64_t live_bound, Keep&& keep) {
    for (auto it = writes_.begin();
         it != writes_.end() && (live_bound == UINT64_MAX || it->gseq < live_bound);) {
      if (keep(*it)) {
        ++it;
        continue;
      }
      index_.Erase(kSide, it->domain, it->start, it->length, it->gseq);
      it = writes_.erase(it);
    }
  }

  size_t size() const { return writes_.size(); }
  bool empty() const { return writes_.empty(); }

 private:
  static constexpr RangeIndex::Side kSide = RangeIndex::Side::kDst;

  std::set<Write> writes_;
  RangeIndex index_;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_RANGE_INDEX_H_
