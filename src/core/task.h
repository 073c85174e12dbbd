// Copier task vocabulary (§4.1, §4.2).
//
// Clients talk to the service through three per-client queues (CSH Queues):
//   * Copy Queue    — CopyQueueEntry: Copy Tasks and (k-mode only) Barrier
//                     Tasks used for cross-queue order tracking (§4.2.1);
//   * Sync Queue    — Sync Tasks: promote segments a client is about to use
//                     (out-of-order execution, §4.1) or abort queued tasks;
//   * Handler Queue — UFUNC handler tasks the service delegates back to the
//                     client library for execution (§4.1).
#ifndef COPIER_SRC_CORE_TASK_H_
#define COPIER_SRC_CORE_TASK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/cycle_clock.h"
#include "src/simos/address_space.h"

namespace copier::core {

class Descriptor;

// A source or destination of a Copy Task: either a virtual range in a client
// address space (user tasks, and kernel tasks naming user buffers) or a
// kernel linear-mapped host buffer (skbs, Binder buffers, CoW frames), which
// is physically contiguous by construction.
struct MemRef {
  simos::AddressSpace* space = nullptr;  // null => kernel host memory
  uint64_t va = 0;                       // valid when space != nullptr
  uint8_t* host = nullptr;               // valid when space == nullptr

  bool is_user() const { return space != nullptr; }

  // Domain id for overlap comparison: address spaces by asid, kernel = 0.
  uint64_t domain() const { return space != nullptr ? space->asid() : 0; }
  // Numeric start address within the domain.
  uint64_t start() const {
    return space != nullptr ? va : reinterpret_cast<uint64_t>(host);
  }

  static MemRef User(simos::AddressSpace* space, uint64_t va) { return {space, va, nullptr}; }
  static MemRef Kernel(uint8_t* host) { return {nullptr, 0, host}; }

  MemRef Offset(uint64_t bytes) const {
    MemRef ref = *this;
    if (ref.space != nullptr) {
      ref.va += bytes;
    } else {
      ref.host += bytes;
    }
    return ref;
  }
};

enum class TaskType : uint8_t {
  kNormal = 0,
  kLazy = 1,  // lowest priority; usually a mediator for copy absorption (§4.4)
};

// Post-copy handler (§4.1): delegation-based post-copy handling. KFUNCs run
// in the Copier thread; UFUNCs are queued to the client's Handler Queue.
struct PostHandler {
  enum class Kind : uint8_t { kNone = 0, kKernelFunc, kUserFunc };
  Kind kind = Kind::kNone;
  // For KFUNC the argument is the completion time on the Copier clock; for
  // UFUNC it is the time the client library drains the handler.
  std::function<void(Cycles)> fn;

  static PostHandler None() { return {}; }
  static PostHandler KernelFunc(std::function<void(Cycles)> fn) {
    return {Kind::kKernelFunc, std::move(fn)};
  }
  static PostHandler UserFunc(std::function<void(Cycles)> fn) {
    return {Kind::kUserFunc, std::move(fn)};
  }
};

using TaskId = uint64_t;

// One segment of a scatter-gather Copy Task: a physically contiguous kernel
// buffer (an skb, a Binder buffer) plus the per-segment KFUNC that fires when
// every byte of the segment has landed — e.g. skb delivery on the send path.
struct SgSegment {
  uint8_t* kernel = nullptr;
  size_t length = 0;
  std::function<void(Cycles)> on_complete;  // may be empty
};

// Segment list of a scatter-gather Copy Task (vectored submission): one side
// of the task is the concatenation of `segs` in order, the other side is the
// single contiguous range in CopyTask::dst/src as usual. Task-local byte k
// lives in the segment containing k under the prefix sums of `segs`. Only
// k-mode submitters build these (the kernel owns the buffers); the segments
// are exclusive to the task for its lifetime by the skb/Binder buffer
// lifecycle.
struct SgList {
  bool kernel_is_dst = false;  // true: gather (user -> segments, send path);
                               // false: scatter (segments -> user, recv path)
  // Bookkeeping list (fused IPC, DESIGN.md §12): the segments carry only
  // chunk lengths and per-chunk KFUNCs — `kernel` stays null and neither side
  // of the task is a segment list. Geometry, dependency tracking, the remap
  // tier and cross-engine visibility all treat the task as its plain
  // contiguous dst/src (SideIsSg returns false); only the in-order
  // credit-and-fire machinery consumes the list, so skb-token reclaim fires
  // chunk by chunk exactly as the two-step path fires per-skb KFUNCs.
  bool bookkeeping = false;
  std::vector<SgSegment> segs;

  // Forward-fuse header splice (DESIGN.md §12): when set (bookkeeping lists
  // only), the task's *source* is the concatenation of these kernel-resident
  // bytes and the user range at CopyTask::src — task-local source byte k
  // reads prefix[k] for k < prefix->size() and src+(k - prefix->size())
  // otherwise; task.length covers both. The destination stays the plain
  // contiguous dst. This is how a proxy-forwarded message carries its
  // rewritten header without the payload ever entering the proxy's space.
  std::shared_ptr<const std::vector<uint8_t>> prefix;

  size_t total_length() const {
    size_t sum = 0;
    for (const SgSegment& seg : segs) {
      sum += seg.length;
    }
    return sum;
  }
};

struct CopyTask {
  TaskId id = 0;  // assigned by the service at ingestion
  MemRef dst;
  MemRef src;
  size_t length = 0;

  // Fine-grained status granularity (§4.1). Descriptor bits cover
  // [descriptor_offset, descriptor_offset + length) of the descriptor's
  // byte space in units of its segment size.
  Descriptor* descriptor = nullptr;
  size_t descriptor_offset = 0;

  TaskType type = TaskType::kNormal;
  PostHandler handler;
  Cycles submit_time = 0;

  // Service-global submission sequence (DESIGN.md §10): stamped by the
  // submitting side (libCopier, CopierLinux) from the service's shared
  // counter, so cross-client ordering of conflicting shared ranges is fixed
  // at submission, not at whichever engine happens to ingest first. 0 = not
  // stamped (direct ring pushes); the engine assigns one at ingestion.
  uint64_t gseq = 0;

  // Non-null for scatter-gather tasks: the side named by sg->kernel_is_dst is
  // the segment list (dst or src above is then ignored for that side), and
  // `length` equals sg->total_length(). Shared because queue entries may be
  // peeked/copied; the list itself is immutable after submission.
  std::shared_ptr<const SgList> sg;
};

// Copy Queue entries: Copy Tasks interleaved (k-mode) with Barrier Tasks.
struct CopyQueueEntry {
  enum class Kind : uint8_t {
    kCopy = 0,
    kBarrierEnter,  // k-mode: first k submission after a trap; records the
                    // u-mode Copy Queue head position at that moment (§4.2.1)
    kBarrierExit,   // k-mode: kernel returning to userspace closes the bracket
  };
  Kind kind = Kind::kCopy;
  CopyTask task;                    // valid when kind == kCopy
  uint64_t user_queue_position = 0;  // valid when kind == kBarrierEnter
};

struct SyncTask {
  enum class Kind : uint8_t {
    kPromote = 0,  // raise priority of the copies producing [addr, addr+length)
    kAbort = 1,    // explicitly discard still-queued Copy Tasks on the range (§4.4)
  };
  Kind kind = Kind::kPromote;
  MemRef addr;
  size_t length = 0;
};

// Handler Queue entries (service -> client): deferred UFUNCs.
struct HandlerTask {
  std::function<void(Cycles)> fn;
  Cycles ready_time = 0;  // completion time of the copy that owed this handler
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_TASK_H_
