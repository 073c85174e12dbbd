#include "src/hw/dma_engine.h"

#include <algorithm>
#include <cstring>

namespace copier::hw {

StatusOr<uint64_t> DmaEngine::SubmitBatch(std::span<const DmaDescriptor> batch, Cycles now) {
  if (batch.empty()) {
    return InvalidArgument("empty DMA batch");
  }
  if (in_flight_.size() + batch.size() > ring_slots_) {
    return Unavailable("DMA descriptor ring full");
  }

  // Move the data now (see header: clients are gated by descriptor bitmaps,
  // so early data is unobservable). A self-overlapping client copy yields a
  // descriptor whose src and dst overlap, so bytes move with memmove
  // semantics.
  Cycles transfer = 0;
  for (const DmaDescriptor& d : batch) {
    std::memmove(d.dst, d.src, d.length);
    transfer += model_->DmaTransferCycles(d.length);
    total_bytes_ += d.length;
  }

  // The engine picks up the batch after the doorbell rings and after any
  // earlier batch drains (serial channel).
  const Cycles start = std::max(now + model_->dma_submit_cycles, busy_until_);
  busy_until_ = start + transfer;

  const uint64_t cookie = next_cookie_++;
  in_flight_.push_back(Batch{cookie, busy_until_});
  ++total_batches_;
  return cookie;
}

Cycles DmaEngine::CompletionTime(uint64_t cookie) const {
  for (const Batch& b : in_flight_) {
    if (b.cookie == cookie) {
      return b.completion_time;
    }
  }
  // Already retired: complete in the past.
  return 0;
}

size_t DmaEngine::Poll(Cycles now) {
  size_t retired = 0;
  while (!in_flight_.empty() && in_flight_.front().completion_time <= now) {
    in_flight_.pop_front();
    ++retired;
  }
  return retired;
}

}  // namespace copier::hw
