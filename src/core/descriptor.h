// Descriptor — the segment bitmap a client checks to observe copy progress
// (§4.1: "a bitmap tracking the copy status of each segment").
//
// The Copier thread marks a segment's bit (release) after the segment's bytes
// land; csync() polls bits (acquire). Each segment also records the virtual
// time it became ready, which the virtual-time benchmark engine uses to
// compute csync blocking latencies; real-thread clients ignore it.
//
// A descriptor may fail: if proactive fault handling drops the task (§4.5.4)
// the service sets the failed flag and marks all bits so that waiters wake
// and observe the error instead of spinning forever.
#ifndef COPIER_SRC_CORE_DESCRIPTOR_H_
#define COPIER_SRC_CORE_DESCRIPTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "src/common/align.h"
#include "src/common/bitmap.h"
#include "src/common/cycle_clock.h"

namespace copier::core {

inline constexpr size_t kDefaultSegmentSize = 4096;

class Descriptor {
 public:
  Descriptor(size_t length, size_t segment_size = kDefaultSegmentSize)
      : length_(length),
        segment_size_(segment_size),
        num_segments_((length + segment_size - 1) / segment_size),
        capacity_segments_(std::max<size_t>(1, (length + segment_size - 1) / segment_size)),
        bits_(capacity_segments_) {
    ready_times_ = std::make_unique<std::atomic<Cycles>[]>(capacity_segments_);
    Reset(length);
  }

  size_t length() const { return length_.load(std::memory_order_relaxed); }
  size_t segment_size() const { return segment_size_; }
  size_t num_segments() const { return num_segments_.load(std::memory_order_relaxed); }

  // Re-arms the descriptor for reuse (low-level API descriptor pooling,
  // §5.1.1), optionally resizing the covered byte length (same capacity).
  // Geometry fields are relaxed atomics: a pooled descriptor can be re-armed
  // by one app thread while another still polls a just-released range it
  // looked up earlier (the stale waiter sees either geometry consistently
  // enough to terminate — its own bytes were ready before the release).
  void Reset(size_t length) {
    const size_t segments = (length + segment_size_ - 1) / segment_size_;
    COPIER_CHECK(segments <= capacity_segments_)
        << "Reset beyond descriptor capacity: need " << segments << " segments, have "
        << capacity_segments_;
    length_.store(length, std::memory_order_relaxed);
    num_segments_.store(segments, std::memory_order_relaxed);
    bits_.Clear();
    failed_.store(false, std::memory_order_relaxed);
    for (size_t i = 0; i < segments; ++i) {
      ready_times_[i].store(0, std::memory_order_relaxed);
    }
  }

  size_t SegmentOf(size_t byte_offset) const { return byte_offset / segment_size_; }

  // Marks every segment fully contained in — or partially covered by —
  // [offset, offset+n) ready at `when`. The service only calls this once the
  // covered bytes have actually landed.
  void MarkRange(size_t offset, size_t n, Cycles when) {
    if (n == 0) {
      return;
    }
    const size_t segments = num_segments();
    const size_t first = SegmentOf(offset);
    if (first >= segments) {
      return;
    }
    const size_t last = std::min(SegmentOf(offset + n - 1), segments - 1);
    for (size_t seg = first; seg <= last; ++seg) {
      ready_times_[seg].store(when, std::memory_order_relaxed);
    }
    // The release word stores publish the ready times above with the bits.
    bits_.SetRange(first, last);
  }

  bool RangeReady(size_t offset, size_t n) const {
    const size_t segments = num_segments();
    if (n == 0 || segments == 0) {
      return true;
    }
    const size_t first = SegmentOf(offset);
    const size_t last = std::min(SegmentOf(offset + n - 1), segments - 1);
    return bits_.AllSetInRange(first, last);
  }

  bool SegmentReady(size_t segment) const { return bits_.Test(segment); }
  bool AllReady() const {
    const size_t segments = num_segments();
    return segments == 0 || bits_.AllSetInRange(0, segments - 1);
  }

  // Latest ready time across segments covering [offset, offset+n); only
  // meaningful once RangeReady. Used by the virtual-time engine.
  Cycles ReadyTime(size_t offset, size_t n) const {
    const size_t segments = num_segments();
    if (n == 0 || segments == 0) {
      return 0;
    }
    const size_t first = SegmentOf(offset);
    const size_t last = std::min(SegmentOf(offset + n - 1), segments - 1);
    Cycles latest = 0;
    for (size_t seg = first; seg <= last; ++seg) {
      latest = std::max(latest, ready_times_[seg].load(std::memory_order_relaxed));
    }
    return latest;
  }

  // Failure path: wakes every waiter with an error indication.
  void MarkFailed(Cycles when) {
    failed_.store(true, std::memory_order_release);
    MarkRange(0, length(), when);
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

 private:
  std::atomic<size_t> length_;
  size_t segment_size_;
  std::atomic<size_t> num_segments_;
  size_t capacity_segments_;
  AtomicBitmap bits_;
  std::unique_ptr<std::atomic<Cycles>[]> ready_times_;
  std::atomic<bool> failed_{false};
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_DESCRIPTOR_H_
