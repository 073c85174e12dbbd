// PhysicalMemory — the simulated machine's frame pool.
//
// One host allocation backs all simulated physical frames; a frame number
// (pfn) indexes into it. The allocator can run in sequential mode (adjacent
// allocations get adjacent frames — the common case after boot) or fragmented
// mode (randomized free-list — stresses the dispatcher's subtask splitting,
// Fig. 7-b, since DMA needs physical contiguity).
//
// Every address space shares one pool, and faults, CoW breaks and forks of
// different processes run on different threads: reference counts are atomic,
// and the free list sits behind a mutex.
#ifndef COPIER_SRC_SIMOS_PHYS_MEMORY_H_
#define COPIER_SRC_SIMOS_PHYS_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/align.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace copier::simos {

using Pfn = uint64_t;

class PhysicalMemory {
 public:
  enum class AllocPolicy {
    kSequential,  // first-fit ascending: contiguous ranges likely
    kFragmented,  // randomized: adjacent allocations rarely contiguous
  };

  explicit PhysicalMemory(size_t bytes, AllocPolicy policy = AllocPolicy::kSequential,
                          uint64_t seed = 1);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  StatusOr<Pfn> AllocFrame();
  // Tries to allocate `count` physically contiguous frames (used by the skb
  // pool and 2 MiB CoW pages). Falls back with kResourceExhausted.
  StatusOr<Pfn> AllocContiguous(size_t count);
  void FreeFrame(Pfn pfn);

  uint8_t* FrameData(Pfn pfn) {
    return slab_.get() + (pfn << kPageShift);
  }
  const uint8_t* FrameData(Pfn pfn) const { return slab_.get() + (pfn << kPageShift); }

  size_t total_frames() const { return total_frames_; }
  size_t free_frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_list_.size();
  }

  // Frame reference counting — shared CoW frames have count > 1.
  void Ref(Pfn pfn) { ++refcount_[pfn]; }
  // Decrements; frees the frame when the count reaches zero.
  void Unref(Pfn pfn);
  uint32_t RefCount(Pfn pfn) const { return refcount_[pfn]; }

 private:
  StatusOr<Pfn> AllocFrameLocked();

  size_t total_frames_;
  AllocPolicy policy_;
  std::unique_ptr<uint8_t[]> slab_;
  mutable std::mutex mu_;  // guards free_list_ and rng_
  std::vector<Pfn> free_list_;  // treated as stack (sequential) or sampled (fragmented)
  std::vector<std::atomic<uint32_t>> refcount_;
  Rng rng_;
};

}  // namespace copier::simos

#endif  // COPIER_SRC_SIMOS_PHYS_MEMORY_H_
