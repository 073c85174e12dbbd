#include "src/core/atcache.h"

#include <algorithm>
#include <vector>

namespace copier::core {

const ATCache::Entry* ATCache::Lookup(uint32_t asid, uint64_t va) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(asid, PageNumber(va)));
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void ATCache::Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t vpn = PageNumber(va);
  entries_[Key(asid, vpn)] = Entry{host_page, writable};
  if (!writable && !warm_.empty()) {
    LockedTrimWarm(asid, vpn, vpn);  // a read-only entry breaks the warm invariant
  }
}

void ATCache::Invalidate(uint32_t asid, uint64_t va, size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  if (length == SIZE_MAX) {
    // Whole-space invalidation (fork downgrades permissions broadly).
    for (auto it = entries_.begin(); it != entries_.end();) {
      if ((it->first >> 40) == asid) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    warm_.erase(warm_.lower_bound({asid, 0}), warm_.upper_bound({asid, UINT64_MAX}));
    return;
  }
  const uint64_t first = PageNumber(va);
  const uint64_t last = PageNumber(va + (length == 0 ? 0 : length - 1));
  for (uint64_t vpn = first; vpn <= last; ++vpn) {
    entries_.erase(Key(asid, vpn));
  }
  if (!warm_.empty()) {
    LockedTrimWarm(asid, first, last);
  }
}

void ATCache::LockedTrimWarm(uint32_t asid, uint64_t first, uint64_t last) {
  // Ranges are disjoint and sorted, so the ones overlapping [first, last] sit
  // just before the first range starting past `last`.
  std::vector<std::pair<uint64_t, uint64_t>> keep;
  auto it = warm_.upper_bound({asid, last});
  while (it != warm_.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first != asid || prev->second < first) {
      break;
    }
    const uint64_t lo = prev->first.second;
    const uint64_t hi = prev->second;
    if (lo < first) {
      keep.emplace_back(lo, first - 1);
    }
    if (hi > last) {
      keep.emplace_back(last + 1, hi);
    }
    it = warm_.erase(prev);
  }
  for (const auto& [lo, hi] : keep) {
    warm_.emplace(std::make_pair(asid, lo), hi);
  }
}

bool ATCache::MarkWarm(uint32_t asid, uint64_t va, size_t length) {
  uint64_t first = PageNumber(va);
  uint64_t last = PageNumber(va + length - 1);
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t vpn = first; vpn <= last; ++vpn) {
    auto it = entries_.find(Key(asid, vpn));
    if (it == entries_.end() || !it->second.writable) {
      return false;  // invalidated since the walk inserted it
    }
  }
  // Coalesce with overlapping or adjacent ranges of the same space.
  auto it = warm_.lower_bound({asid, first});
  if (it != warm_.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first == asid && prev->second + 1 >= first) {
      first = prev->first.second;
      last = std::max(last, prev->second);
      warm_.erase(prev);
    }
  }
  while (it != warm_.end() && it->first.first == asid && it->first.second <= last + 1) {
    last = std::max(last, it->second);
    it = warm_.erase(it);
  }
  warm_.emplace(std::make_pair(asid, first), last);
  return true;
}

bool ATCache::IsWarm(uint32_t asid, uint64_t va, size_t length) {
  const uint64_t first = PageNumber(va);
  const uint64_t last = PageNumber(va + length - 1);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = warm_.upper_bound({asid, first});
  if (it == warm_.begin()) {
    return false;
  }
  --it;
  return it->first.first == asid && it->second >= last;
}

int ATCache::Attach(simos::AddressSpace& space) {
  return space.AddInvalidationListener(
      [this](uint32_t asid, uint64_t va, size_t length) { Invalidate(asid, va, length); });
}

}  // namespace copier::core
