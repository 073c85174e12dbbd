// AtomicBitmap — the storage behind Copier task descriptors (§4.1).
//
// Each bit tracks the copy status of one fixed-size segment. The Copier
// thread sets bits with release semantics after a segment's bytes land; the
// client's csync() reads with acquire semantics, so a set bit publishes the
// copied data. Descriptors are mapped into client memory in the real kernel;
// here they are plain heap objects shared between client and service threads.
#ifndef COPIER_SRC_COMMON_BITMAP_H_
#define COPIER_SRC_COMMON_BITMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/logging.h"

namespace copier {

class AtomicBitmap {
 public:
  explicit AtomicBitmap(size_t num_bits) : num_bits_(num_bits), words_(WordCount(num_bits)) {
    words_storage_ = std::make_unique<std::atomic<uint64_t>[]>(words_);
    Clear();
  }

  size_t size() const { return num_bits_; }

  void Clear() {
    for (size_t i = 0; i < words_; ++i) {
      words_storage_[i].store(0, std::memory_order_relaxed);
    }
  }

  // Sets `bit` with release semantics (publishes preceding writes).
  void Set(size_t bit) {
    COPIER_DCHECK(bit < num_bits_);
    words_storage_[bit >> 6].fetch_or(1ull << (bit & 63), std::memory_order_release);
  }

  // Sets every bit in [first, last] with release semantics, one atomic OR
  // per 64-bit word.
  void SetRange(size_t first, size_t last) {
    COPIER_DCHECK(first <= last && last < num_bits_);
    size_t word = first >> 6;
    const size_t last_word = last >> 6;
    uint64_t mask = ~0ull << (first & 63);
    while (word < last_word) {
      words_storage_[word].fetch_or(mask, std::memory_order_release);
      mask = ~0ull;
      ++word;
    }
    words_storage_[word].fetch_or(mask & (~0ull >> (63 - (last & 63))),
                                  std::memory_order_release);
  }

  void Reset(size_t bit) {
    COPIER_DCHECK(bit < num_bits_);
    words_storage_[bit >> 6].fetch_and(~(1ull << (bit & 63)), std::memory_order_release);
  }

  // Reads `bit` with acquire semantics (synchronizes with Set).
  bool Test(size_t bit) const {
    COPIER_DCHECK(bit < num_bits_);
    return (words_storage_[bit >> 6].load(std::memory_order_acquire) >> (bit & 63)) & 1;
  }

  // True when every bit in [first, last] is set. Word-at-a-time.
  bool AllSetInRange(size_t first, size_t last) const {
    COPIER_DCHECK(first <= last && last < num_bits_);
    size_t word = first >> 6;
    const size_t last_word = last >> 6;
    uint64_t mask = ~0ull << (first & 63);
    while (word < last_word) {
      if ((words_storage_[word].load(std::memory_order_acquire) & mask) != mask) {
        return false;
      }
      mask = ~0ull;
      ++word;
    }
    const uint64_t tail_mask = mask & (~0ull >> (63 - (last & 63)));
    return (words_storage_[word].load(std::memory_order_acquire) & tail_mask) == tail_mask;
  }

  bool AllSet() const { return num_bits_ == 0 || AllSetInRange(0, num_bits_ - 1); }

  bool NoneSet() const {
    for (size_t i = 0; i < words_; ++i) {
      if (words_storage_[i].load(std::memory_order_acquire) != 0) {
        return false;
      }
    }
    return true;
  }

  size_t CountSet() const {
    size_t count = 0;
    for (size_t i = 0; i < words_; ++i) {
      count += static_cast<size_t>(
          __builtin_popcountll(words_storage_[i].load(std::memory_order_acquire)));
    }
    return count;
  }

 private:
  static size_t WordCount(size_t bits) { return (bits + 63) / 64; }

  size_t num_bits_;
  size_t words_;
  std::unique_ptr<std::atomic<uint64_t>[]> words_storage_;
};

}  // namespace copier

#endif  // COPIER_SRC_COMMON_BITMAP_H_
