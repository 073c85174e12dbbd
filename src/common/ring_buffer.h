// Lock-free MPSC ring buffer — the substrate of the CSH Queues (§4.1, §5.1.1).
//
// The paper's submission protocol, implemented verbatim:
//   * producers *acquire* a slot by fetch-and-add on `head`,
//   * fill the slot's payload,
//   * then set the slot's per-slot `valid` flag (release);
//   * the single consumer (a Copier thread) observes a valid slot at `tail`,
//     consumes it, clears `valid`, and advances the tail.
//
// Task order follows the order of *acquiring*, matching §5.1.1. The queue is
// bounded; producers get false when the ring is full and fall back to
// synchronous copy (the paper's recommended fallback, §4.6).
//
// Vectored submission (one doorbell per syscall) adds a batch producer path:
// TryReserveBatch acquires N contiguous slots with a single head CAS, the
// producer fills all payloads, and Batch::Commit publishes them with one
// release fence — one ring transaction for the whole syscall's op-list.
#ifndef COPIER_SRC_COMMON_RING_BUFFER_H_
#define COPIER_SRC_COMMON_RING_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/logging.h"

namespace copier {

template <typename T>
class MpscRingBuffer {
 public:
  explicit MpscRingBuffer(size_t capacity) : capacity_(RoundUpPow2(capacity)), mask_(capacity_ - 1) {
    slots_ = std::make_unique<Slot[]>(capacity_);
  }

  size_t capacity() const { return capacity_; }

  // Free slots right now: exact for the only producer, a hint otherwise.
  size_t FreeSlots() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t used = head_.load(std::memory_order_acquire) - tail;
    return used >= capacity_ ? 0 : capacity_ - used;
  }

  // Producer side (any thread). Returns false when the ring is full, or
  // when the push would leave fewer than `headroom` free slots (a producer
  // keeping room for an entry it must publish later).
  bool TryPush(T value, size_t headroom = 0) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    while (true) {
      const uint64_t tail = tail_.load(std::memory_order_acquire);
      if (head - tail + 1 + headroom > capacity_) {
        return false;  // Full.
      }
      if (head_.compare_exchange_weak(head, head + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    Slot& slot = slots_[head & mask_];
    slot.value = std::move(value);
    slot.valid.store(true, std::memory_order_release);
    return true;
  }

  // A batch of contiguously reserved, not-yet-published slots. Fill every
  // payload via operator[] and then Commit() exactly once. The consumer stalls
  // at the batch's first slot until Commit, so reservations must be
  // short-lived; a Batch must not outlive the ring.
  class Batch {
   public:
    Batch() = default;

    size_t size() const { return count_; }

    T& operator[](size_t i) {
      COPIER_DCHECK(ring_ != nullptr && i < count_);
      return ring_->slots_[(base_ + i) & ring_->mask_].value;
    }

    // Publishes the whole batch: a release store per valid flag, in slot
    // order. The consumer's acquire load of a slot's flag synchronizes with
    // that store, so every payload write in the batch is visible before the
    // slot is exposed. (Release stores rather than one release fence +
    // relaxed stores: equivalent on the architectures we target, and
    // standalone fences are invisible to ThreadSanitizer.)
    void Commit() {
      COPIER_DCHECK(ring_ != nullptr);
      for (size_t i = 0; i < count_; ++i) {
        ring_->slots_[(base_ + i) & ring_->mask_].valid.store(true, std::memory_order_release);
      }
      ring_ = nullptr;
      count_ = 0;
    }

   private:
    friend class MpscRingBuffer;
    MpscRingBuffer* ring_ = nullptr;
    uint64_t base_ = 0;
    size_t count_ = 0;
  };

  // Reserves `count` contiguous slots with one head CAS. All-or-nothing: when
  // fewer than `count + headroom` slots are free nothing is acquired and the
  // ring state is untouched (the producer falls back to per-op submission).
  bool TryReserveBatch(size_t count, Batch* out, size_t headroom = 0) {
    if (count == 0 || count + headroom > capacity_) {
      return false;
    }
    uint64_t head = head_.load(std::memory_order_relaxed);
    while (true) {
      const uint64_t tail = tail_.load(std::memory_order_acquire);
      if (head - tail + count + headroom > capacity_) {
        return false;  // Not enough contiguous room.
      }
      if (head_.compare_exchange_weak(head, head + count, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    out->ring_ = this;
    out->base_ = head;
    out->count_ = count;
    return true;
  }

  // Consumer side (single thread). Returns nullopt when the slot at tail has
  // not been published yet (empty, or a producer is mid-fill).
  std::optional<T> TryPop() {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[tail & mask_];
    if (!slot.valid.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    T value = std::move(slot.value);
    slot.valid.store(false, std::memory_order_release);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Consumer-side peek without consuming; used by the dispatcher to fuse
  // adjacent tasks for e-piggybacking (§4.3) before committing to them.
  const T* Peek(size_t offset = 0) const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const Slot& slot = slots_[(tail + offset) & mask_];
    if (!slot.valid.load(std::memory_order_acquire)) {
      return nullptr;
    }
    // A later slot may be valid while an earlier one is mid-fill; only expose
    // a contiguous published prefix to preserve acquire order.
    for (size_t i = 0; i < offset; ++i) {
      if (!slots_[(tail + i) & mask_].valid.load(std::memory_order_acquire)) {
        return nullptr;
      }
    }
    return &slot.value;
  }

  bool Empty() const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    return !slots_[tail & mask_].valid.load(std::memory_order_acquire);
  }

  // Number of acquired (not necessarily published) slots. Approximate under
  // concurrency; exact when producers are quiescent.
  size_t SizeApprox() const {
    return static_cast<size_t>(head_.load(std::memory_order_acquire) -
                               tail_.load(std::memory_order_acquire));
  }

  // Monotone count of slots ever acquired; the order tracker uses this as the
  // queue position recorded in Barrier Tasks (§4.2.1).
  uint64_t HeadPosition() const { return head_.load(std::memory_order_acquire); }
  uint64_t TailPosition() const { return tail_.load(std::memory_order_acquire); }

 private:
  struct Slot {
    std::atomic<bool> valid{false};
    T value{};
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace copier

#endif  // COPIER_SRC_COMMON_RING_BUFFER_H_
