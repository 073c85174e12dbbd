// DmaChannelPool — N independent DMA channels behind one dispatch surface
// (§4.3, DESIGN.md §9).
//
// Real I/OAT silicon exposes several independent channels per socket; the
// dispatcher that treats "the DMA engine" as one serial queue caps aggregate
// copy bandwidth at a single channel no matter how much work it has. The pool
// models each channel as its own DmaEngine (serial, bounded descriptor ring,
// own busy_until clock) and gives the dispatcher what it needs to spread one
// round across all of them:
//   * least-busy selection: PickChannel returns the channel that becomes idle
//     earliest among those with ring space, so per-round batches land where
//     they start soonest;
//   * per-channel backpressure: a full ring rejects only that channel's batch
//     (kUnavailable) — the caller falls back per batch, not per round;
//   * submission records: SubmitOn reports the channel, cookie and completion
//     time together, so a caller parking work in flight never has to query a
//     channel again (queries from a foreign thread would race with the owning
//     engine's Poll).
//
// A pool of one channel is bit-for-bit the old single-engine behavior: same
// costs, same cookie sequence, same completion times.
#ifndef COPIER_SRC_HW_DMA_CHANNEL_POOL_H_
#define COPIER_SRC_HW_DMA_CHANNEL_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/cycle_clock.h"
#include "src/common/status.h"
#include "src/hw/dma_engine.h"
#include "src/hw/timing_model.h"

namespace copier::hw {

class DmaChannelPool {
 public:
  // A successful batch submission: everything the caller needs to track the
  // batch without touching the channel again.
  struct Submission {
    size_t channel = 0;
    uint64_t cookie = 0;
    Cycles completion_time = 0;
  };

  explicit DmaChannelPool(const TimingModel* model, size_t channels = 1,
                          size_t ring_slots = 256);

  DmaChannelPool(const DmaChannelPool&) = delete;
  DmaChannelPool& operator=(const DmaChannelPool&) = delete;

  size_t channel_count() const { return channels_.size(); }
  DmaEngine& channel(size_t i) { return *channels_[i]; }
  const DmaEngine& channel(size_t i) const { return *channels_[i]; }

  // Channel becoming idle earliest among those with at least `slots_needed`
  // free ring entries (ties: lowest index). Returns channel_count() when
  // every ring is too full — the caller's CPU-fallback signal.
  size_t PickChannel(size_t slots_needed) const;

  // Submits `batch` on `channel` at time `now`. CPU cost to charge is
  // SubmissionCost(batch.size()) per batch — each channel has its own
  // descriptor ring and doorbell.
  StatusOr<Submission> SubmitOn(size_t channel, std::span<const DmaDescriptor> batch,
                                Cycles now);

  Cycles SubmissionCost(size_t descriptors) const {
    return channels_[0]->SubmissionCost(descriptors);
  }

  // Retires completed batches on every channel; returns total retired.
  size_t Poll(Cycles now);

  // Time at which the whole pool goes idle (max over channels).
  Cycles busy_until() const;
  size_t in_flight() const;

  uint64_t total_bytes() const;
  uint64_t total_batches() const;

 private:
  std::vector<std::unique_ptr<DmaEngine>> channels_;
};

// A contiguous window [first, first + count) of a shared DmaChannelPool,
// exposed through the pool's own API surface with slice-relative channel
// indices (DESIGN.md §10). The engine pool carves one service-owned channel
// pool into disjoint slices, one per engine, so each engine's channel state
// (rings, busy clocks, cookies) stays exclusively owned by its serving
// thread — a slice over its channels behaves bit-for-bit like a private pool
// of `count` channels. The slice is a view: it holds no channel state and is
// freely copyable.
class DmaChannelSlice {
 public:
  DmaChannelSlice() = default;
  DmaChannelSlice(DmaChannelPool* pool, size_t first, size_t count)
      : pool_(pool), first_(first), count_(count) {}

  size_t channel_count() const { return count_; }
  DmaEngine& channel(size_t i) { return pool_->channel(first_ + i); }
  const DmaEngine& channel(size_t i) const { return pool_->channel(first_ + i); }

  // Least-busy selection over the slice's channels; returns channel_count()
  // when every ring in the slice is too full. Indices are slice-relative.
  size_t PickChannel(size_t slots_needed) const;

  StatusOr<DmaChannelPool::Submission> SubmitOn(size_t channel,
                                                std::span<const DmaDescriptor> batch,
                                                Cycles now) {
    auto submission = pool_->SubmitOn(first_ + channel, batch, now);
    if (submission.ok()) {
      submission->channel -= first_;  // report slice-relative, like a private pool
    }
    return submission;
  }

  Cycles SubmissionCost(size_t descriptors) const {
    return pool_->SubmissionCost(descriptors);
  }

  // Retires completed batches on the slice's channels only: a slice never
  // touches a foreign engine's channel state.
  size_t Poll(Cycles now);

  Cycles busy_until() const;
  size_t in_flight() const;
  uint64_t total_bytes() const;
  uint64_t total_batches() const;

 private:
  DmaChannelPool* pool_ = nullptr;
  size_t first_ = 0;
  size_t count_ = 0;
};

}  // namespace copier::hw

#endif  // COPIER_SRC_HW_DMA_CHANNEL_POOL_H_
