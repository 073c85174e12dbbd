// ATCache — Address Transfer Cache (§4.3).
//
// DMA needs physical addresses; translating a VA costs ~240 cycles/page.
// Copy addresses recur heavily (buffer pools, fixed I/O buffers — the paper
// measures >75% recurrence in Redis), so the service caches per-page
// translations. The memory subsystem invalidates entries when mappings
// change, via AddressSpace invalidation listeners.
//
// Window registration (DESIGN.md §12) also records *warm ranges*: page ranges
// of one address space whose every page holds a writable entry. A re-posted
// window that is still warm needs no page walk. The same invalidations that
// erase entries trim or drop the warm ranges covering them.
#ifndef COPIER_SRC_CORE_ATCACHE_H_
#define COPIER_SRC_CORE_ATCACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/common/align.h"
#include "src/simos/address_space.h"

namespace copier::core {

class ATCache {
 public:
  struct Entry {
    uint8_t* host_page = nullptr;  // host pointer to the frame
    bool writable = false;         // cached translation was write-capable
  };

  // Looks up (asid, page of va). Returns nullptr on miss.
  const Entry* Lookup(uint32_t asid, uint64_t va);

  void Insert(uint32_t asid, uint64_t va, uint8_t* host_page, bool writable);

  // Invalidation callback target: drops entries (and warm ranges) covering
  // [va, va+length) of `asid`; length SIZE_MAX drops the whole address space.
  void Invalidate(uint32_t asid, uint64_t va, size_t length);

  // Records the pages of [va, va+length) of `asid` as warm if every one of
  // them holds a writable entry now; returns whether it did. length > 0.
  bool MarkWarm(uint32_t asid, uint64_t va, size_t length);
  // True when every page of [va, va+length) lies in one warm range. length > 0.
  bool IsWarm(uint32_t asid, uint64_t va, size_t length);

  // Registers this cache with an address space; the returned token pairs with
  // RemoveInvalidationListener. Caller manages lifetime.
  int Attach(simos::AddressSpace& space);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static uint64_t Key(uint32_t asid, uint64_t vpn) {
    return (static_cast<uint64_t>(asid) << 40) ^ vpn;
  }

  // Removes pages [first, last] of `asid` from the warm ranges. mu_ held.
  void LockedTrimWarm(uint32_t asid, uint64_t first, uint64_t last);

  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  // Warm ranges: (asid, first VPN) -> last VPN. Disjoint and coalesced, so a
  // window inside one registered set is found with one probe.
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> warm_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace copier::core

#endif  // COPIER_SRC_CORE_ATCACHE_H_
