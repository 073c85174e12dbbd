#include "src/probe.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/trace.h"

namespace perfbench {

namespace {

double ProbeOnce() {
  constexpr size_t kPage = 4096;
  constexpr size_t kPages = 2048;  // 8 MiB: larger than the last-level cache share
  static std::vector<uint8_t> arena(kPages * kPage, 1);
  std::unordered_map<uint64_t, uint64_t> table;
  const uint64_t start = HostNowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t hash = 1469598103934665603ull;
  for (int i = 0; i < 18000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const size_t from = (x >> 20) % kPages;
    const size_t to = (x >> 40) % kPages;
    std::memcpy(arena.data() + to * kPage, arena.data() + from * kPage, kPage);
    for (size_t b = 0; b < 256; ++b) {
      hash = (hash ^ arena[from * kPage + b]) * 1099511628211ull;
    }
    table[x % 4096] += hash;
  }
  arena[hash % arena.size()] ^= static_cast<uint8_t>(table.size());
  return static_cast<double>(HostNowNs() - start) / 1e9;
}

}  // namespace

double ProbeSeconds() {
  // The fastest of three: an interruption lengthens one sample, never
  // shortens it.
  double best = ProbeOnce();
  for (int i = 0; i < 2; ++i) {
    best = std::min(best, ProbeOnce());
  }
  return best;
}

}  // namespace perfbench
