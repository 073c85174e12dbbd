// RangeIndex unit tests plus a randomized differential test: a long random
// op stream (insert / erase / overlap query) replayed against a reference
// linear-scan implementation, asserting identical answers — the same queries
// the Engine issues (producer lookup, conflict matching, abort matching).
// LandedWriteLog gets the same treatment: its later-write probe is checked
// against a brute-force scan of the log over random insert / import / prune
// sequences.
#include "src/core/range_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

namespace copier::core {
namespace {

using Side = RangeIndex::Side;

std::vector<uint64_t> CollectOrders(RangeIndex& index, Side side, uint64_t domain,
                                    uint64_t start, size_t length) {
  std::vector<uint64_t> orders;
  index.ForEachOverlap(side, domain, start, length, [&](const RangeIndex::Entry& entry) {
    orders.push_back(entry.order);
    return true;
  });
  return orders;
}

TEST(RangeIndex, EmptyIndexFindsNothing) {
  RangeIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(CollectOrders(index, Side::kDst, 1, 0, 4096).empty());
}

TEST(RangeIndex, InsertAndStabbingQuery) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0x100, /*order=*/1, nullptr);
  index.Insert(Side::kDst, 1, 0x2000, 0x100, /*order=*/2, nullptr);
  EXPECT_EQ(index.size(), 2u);

  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1080, 1), std::vector<uint64_t>{1});
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x2000, 1), std::vector<uint64_t>{2});
  // Half-open: the byte one past the end does not match.
  EXPECT_TRUE(CollectOrders(index, Side::kDst, 1, 0x1100, 1).empty());
  // A spanning query returns both, ascending by address.
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1000, 0x1100),
            (std::vector<uint64_t>{1, 2}));
}

TEST(RangeIndex, SidesAreIndependent) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0x100, 1, nullptr);
  index.Insert(Side::kSrc, 1, 0x1000, 0x100, 2, nullptr);
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1000, 0x100), std::vector<uint64_t>{1});
  EXPECT_EQ(CollectOrders(index, Side::kSrc, 1, 0x1000, 0x100), std::vector<uint64_t>{2});
}

TEST(RangeIndex, DomainsDoNotBleed) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0x100, 1, nullptr);
  index.Insert(Side::kDst, 2, 0x1000, 0x100, 2, nullptr);
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1000, 0x100), std::vector<uint64_t>{1});
  EXPECT_EQ(CollectOrders(index, Side::kDst, 2, 0x1000, 0x100), std::vector<uint64_t>{2});
  // Domain 1's address space ends where domain 2's begins (the packed key is
  // (domain, addr)); a query at the top of domain 1 must not see domain 2.
  index.Insert(Side::kDst, 1, UINT64_MAX - 0x10, 0x10, 3, nullptr);
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, UINT64_MAX - 0x10, 0x10),
            std::vector<uint64_t>{3});
  EXPECT_EQ(CollectOrders(index, Side::kDst, 2, 0, 0x2000), std::vector<uint64_t>{2});
}

TEST(RangeIndex, DuplicateCoordinatesDistinguishedByOrder) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0x100, 5, nullptr);
  index.Insert(Side::kDst, 1, 0x1000, 0x200, 9, nullptr);
  EXPECT_EQ(index.size(), 2u);
  index.Erase(Side::kDst, 1, 0x1000, 0x100, 5);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1000, 1), std::vector<uint64_t>{9});
  // Erasing an absent entry is a no-op.
  index.Erase(Side::kDst, 1, 0x1000, 0x100, 5);
  EXPECT_EQ(index.size(), 1u);
}

TEST(RangeIndex, ZeroLengthInsertIsIgnored) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0, 1, nullptr);
  EXPECT_TRUE(index.empty());
}

TEST(RangeIndex, EarlyStopReportsTouchedCount) {
  RangeIndex index;
  for (uint64_t i = 0; i < 16; ++i) {
    index.Insert(Side::kDst, 1, 0x1000 + i * 0x100, 0x100, i, nullptr);
  }
  size_t seen = 0;
  const size_t touched =
      index.ForEachOverlap(Side::kDst, 1, 0x1000, 16 * 0x100, [&](const RangeIndex::Entry&) {
        ++seen;
        return seen < 3;  // stop after the third entry
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(touched, 3u);
}

// --- randomized differential test -----------------------------------------

struct RefEntry {
  uint64_t domain;
  uint64_t start;
  size_t length;
  uint64_t order;
};

// Reference model: plain vectors + linear scans.
struct RefIndex {
  std::vector<RefEntry> sides[2];

  void Insert(Side side, uint64_t domain, uint64_t start, size_t length, uint64_t order) {
    if (length == 0) {
      return;
    }
    sides[static_cast<size_t>(side)].push_back({domain, start, length, order});
  }
  void Erase(Side side, uint64_t domain, uint64_t start, size_t length, uint64_t order) {
    auto& v = sides[static_cast<size_t>(side)];
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->domain == domain && it->start == start && it->length == length &&
          it->order == order) {
        v.erase(it);
        return;
      }
    }
  }
  // Overlap hits as (start, order) pairs in the index's enumeration order.
  std::vector<std::pair<uint64_t, uint64_t>> Overlap(Side side, uint64_t domain,
                                                     uint64_t start, size_t length) const {
    std::vector<std::pair<uint64_t, uint64_t>> hits;
    for (const RefEntry& e : sides[static_cast<size_t>(side)]) {
      if (e.domain == domain && e.start < start + length && start < e.start + e.length) {
        hits.emplace_back(e.start, e.order);
      }
    }
    std::sort(hits.begin(), hits.end());
    return hits;
  }
  size_t size() const { return sides[0].size() + sides[1].size(); }
};

// Deterministic PRNG (xorshift64*) so failures reproduce.
struct Rng {
  uint64_t state = 0x243f6a8885a308d3ull;
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

TEST(RangeIndexDifferential, TenThousandRandomOpsMatchLinearReference) {
  RangeIndex index;
  RefIndex ref;
  Rng rng;
  uint64_t next_order = 0;
  // Live entries for targeted erases, as (side, domain, start, length, order).
  std::vector<std::tuple<Side, uint64_t, uint64_t, size_t, uint64_t>> live;

  // Small universe so ranges overlap heavily: 2 domains, addresses < 4096,
  // lengths 1..256.
  const auto rand_domain = [&] { return 1 + rng.Below(2); };
  const auto rand_side = [&] { return rng.Below(2) == 0 ? Side::kDst : Side::kSrc; };

  for (int op = 0; op < 10000; ++op) {
    const uint64_t kind = rng.Below(10);
    if (kind < 5 || live.empty()) {  // insert (also forced while empty)
      const Side side = rand_side();
      const uint64_t domain = rand_domain();
      const uint64_t start = rng.Below(4096);
      const size_t length = 1 + rng.Below(256);
      const uint64_t order = next_order++;
      index.Insert(side, domain, start, length, order, nullptr);
      ref.Insert(side, domain, start, length, order);
      live.emplace_back(side, domain, start, length, order);
    } else if (kind < 7) {  // erase a random live entry
      const size_t victim = rng.Below(live.size());
      const auto [side, domain, start, length, order] = live[victim];
      index.Erase(side, domain, start, length, order);
      ref.Erase(side, domain, start, length, order);
      live[victim] = live.back();
      live.pop_back();
    } else {  // overlap query, compared element-for-element
      const Side side = rand_side();
      const uint64_t domain = rand_domain();
      const uint64_t start = rng.Below(4096);
      const size_t length = 1 + rng.Below(512);
      std::vector<std::pair<uint64_t, uint64_t>> got;
      index.ForEachOverlap(side, domain, start, length, [&](const RangeIndex::Entry& e) {
        got.emplace_back(e.start, e.order);
        return true;
      });
      ASSERT_EQ(got, ref.Overlap(side, domain, start, length))
          << "op=" << op << " side=" << static_cast<int>(side) << " domain=" << domain
          << " query=[" << start << "," << start + length << ")";
    }
    ASSERT_EQ(index.size(), ref.size()) << "op=" << op;
  }

  // Drain: erase everything and confirm the index empties cleanly.
  for (const auto& [side, domain, start, length, order] : live) {
    index.Erase(side, domain, start, length, order);
  }
  EXPECT_TRUE(index.empty());
}

TEST(RangeIndex, EraseIsExactOnLength) {
  RangeIndex index;
  index.Insert(Side::kDst, 1, 0x1000, 0x100, 7, nullptr);
  index.Insert(Side::kDst, 1, 0x1000, 0x40, 7, nullptr);
  index.Erase(Side::kDst, 1, 0x1000, 0x40, 7);
  EXPECT_EQ(index.size(), 1u);
  // The longer entry survived: it still covers bytes past 0x1040.
  EXPECT_EQ(CollectOrders(index, Side::kDst, 1, 0x1080, 1), std::vector<uint64_t>{7});
}

// --- LandedWriteLog ---------------------------------------------------------

using Write = LandedWriteLog::Write;

std::vector<std::tuple<uint64_t, uint64_t, size_t>> LaterOverlaps(const LandedWriteLog& log,
                                                                  uint64_t domain,
                                                                  uint64_t start, size_t length,
                                                                  uint64_t after_gseq) {
  std::vector<std::tuple<uint64_t, uint64_t, size_t>> hits;  // (start, gseq, length)
  log.ForEachLaterOverlap(domain, start, length, after_gseq, [&](const Write& w) {
    EXPECT_EQ(w.domain, domain);
    hits.emplace_back(w.start, w.gseq, w.length);
    return true;
  });
  return hits;
}

TEST(LandedWriteLog, ProbeSeesOnlyLaterOverlappingWrites) {
  LandedWriteLog log;
  log.Insert({/*gseq=*/5, /*domain=*/1, 0x1000, 0x100});
  log.Insert({9, 1, 0x1080, 0x100});
  log.Insert({12, 2, 0x1000, 0x100});  // other domain
  EXPECT_EQ(LaterOverlaps(log, 1, 0x1000, 0x200, 4),
            (std::vector<std::tuple<uint64_t, uint64_t, size_t>>{{0x1000, 5, 0x100},
                                                                  {0x1080, 9, 0x100}}));
  EXPECT_EQ(LaterOverlaps(log, 1, 0x1000, 0x200, 5),
            (std::vector<std::tuple<uint64_t, uint64_t, size_t>>{{0x1080, 9, 0x100}}));
  EXPECT_FALSE(log.AnyLaterOverlap(1, 0x1000, 0x80, 5));  // gseq 9 starts at 0x1080
  EXPECT_TRUE(log.AnyLaterOverlap(1, 0x1000, 0x81, 5));
  EXPECT_FALSE(log.AnyLaterOverlap(1, 0x1000, 0x200, 9));
}

TEST(LandedWriteLog, ImportsSharingStartAndGseqKeepEveryLength) {
  // One foreign tombstone clipped to two different probe windows: same
  // (domain, start, gseq), different lengths. Both are distinct entries, an
  // identical re-import is a no-op, and pruning removes each exactly.
  LandedWriteLog log;
  log.Insert({20, 1, 0x2000, 0x80});
  log.Insert({20, 1, 0x2000, 0x200});
  log.Insert({20, 1, 0x2000, 0x80});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.AnyLaterOverlap(1, 0x2100, 1, 19));
  log.Prune(/*live_bound=*/21, [](const Write& w) { return w.length == 0x200; });
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.AnyLaterOverlap(1, 0x2100, 1, 19));
  log.Prune(21, [](const Write&) { return false; });
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(log.AnyLaterOverlap(1, 0x2000, 0x200, 0));
}

TEST(LandedWriteLog, PruneKeepsWritesAtOrAboveTheLiveBound) {
  LandedWriteLog log;
  log.Insert({3, 1, 0x0, 0x10});
  log.Insert({7, 1, 0x0, 0x10});
  log.Insert({8, 1, 0x0, 0x10});
  // A write below the bound that a foreign prober may still import survives.
  log.Prune(/*live_bound=*/7, [](const Write& w) { return w.gseq == 3; });
  EXPECT_EQ(log.size(), 3u);
  log.Prune(7, [](const Write&) { return false; });
  EXPECT_EQ(LaterOverlaps(log, 1, 0, 0x10, 0),
            (std::vector<std::tuple<uint64_t, uint64_t, size_t>>{{0x0, 7, 0x10},
                                                                  {0x0, 8, 0x10}}));
  // No live task at all: every write is a pruning candidate.
  log.Prune(UINT64_MAX, [](const Write&) { return false; });
  EXPECT_TRUE(log.empty());
}

// Reference model of the log: a flat vector scanned linearly, as the Engine
// did before the log was indexed.
struct RefLog {
  std::vector<Write> writes;

  static bool Same(const Write& a, const Write& b) {
    return a.gseq == b.gseq && a.domain == b.domain && a.start == b.start &&
           a.length == b.length;
  }
  void Insert(const Write& w) {
    if (w.length == 0 || std::any_of(writes.begin(), writes.end(),
                                     [&](const Write& x) { return Same(x, w); })) {
      return;
    }
    writes.push_back(w);
  }
  template <typename Keep>
  void Prune(uint64_t live_bound, Keep keep) {
    std::erase_if(writes, [&](const Write& w) {
      if (live_bound != UINT64_MAX && w.gseq >= live_bound) {
        return false;
      }
      return !keep(w);
    });
  }
  std::vector<std::tuple<uint64_t, uint64_t, size_t>> Later(uint64_t domain, uint64_t start,
                                                            size_t length,
                                                            uint64_t after_gseq) const {
    std::vector<std::tuple<uint64_t, uint64_t, size_t>> hits;
    for (const Write& w : writes) {
      if (w.gseq > after_gseq && w.domain == domain && w.start < start + length &&
          start < w.start + w.length) {
        hits.emplace_back(w.start, w.gseq, w.length);
      }
    }
    std::sort(hits.begin(), hits.end());
    return hits;
  }
};

TEST(LandedWriteLogDifferential, RandomInsertImportPruneMatchesLinearScan) {
  LandedWriteLog log;
  RefLog ref;
  Rng rng;
  uint64_t next_gseq = 1;
  uint64_t live_bound = 1;  // lowest gseq a live task may still hold
  // Stand-in for LandedWriteStillNeeded: some writes below the bound stay
  // needed by a foreign prober for a while.
  uint64_t needed_mod = 5;
  const auto keep = [&needed_mod](const Write& w) { return w.gseq % needed_mod == 0; };
  const auto rand_domain = [&] { return 1 + rng.Below(2); };

  for (int op = 0; op < 20000; ++op) {
    const uint64_t kind = rng.Below(20);
    if (kind < 8) {  // a local task lands: fresh gseq
      const Write w{next_gseq++, rand_domain(), rng.Below(4096), 1 + rng.Below(256)};
      log.Insert(w);
      ref.Insert(w);
    } else if (kind < 12 && !ref.writes.empty()) {
      // Import: a logged write (possibly a foreign client's tombstone) clipped
      // to a random probe window. Windows sharing the entry's start but not
      // its end give imports with equal (domain, start, gseq) and different
      // lengths; repeated windows give exact duplicates.
      const Write& src = ref.writes[rng.Below(ref.writes.size())];
      const uint64_t lo = rng.Below(2) == 0 ? src.start : src.start + rng.Below(src.length);
      const uint64_t hi = lo + 1 + rng.Below(src.start + src.length - lo);
      const Write w{src.gseq + rng.Below(2) * 100000, src.domain, lo, hi - lo};
      log.Insert(w);
      ref.Insert(w);
    } else if (kind < 14) {  // retirement: the bound moves, then prune
      if (rng.Below(8) == 0) {
        live_bound = UINT64_MAX;  // nothing live
      } else {
        live_bound = std::min<uint64_t>(next_gseq, (live_bound == UINT64_MAX ? 1 : live_bound) +
                                                       rng.Below(64));
      }
      if (rng.Below(4) == 0) {
        needed_mod = 2 + rng.Below(6);
      }
      log.Prune(live_bound, keep);
      ref.Prune(live_bound, keep);
      if (live_bound == UINT64_MAX) {
        live_bound = next_gseq;
      }
    } else {  // probe, compared element for element
      const uint64_t domain = rand_domain();
      const uint64_t start = rng.Below(4096);
      const size_t length = 1 + rng.Below(512);
      const uint64_t after = rng.Below(next_gseq + 1);
      const auto want = ref.Later(domain, start, length, after);
      ASSERT_EQ(LaterOverlaps(log, domain, start, length, after), want)
          << "op=" << op << " domain=" << domain << " query=[" << start << ","
          << start + length << ") after=" << after;
      ASSERT_EQ(log.AnyLaterOverlap(domain, start, length, after), !want.empty()) << "op=" << op;
    }
    ASSERT_EQ(log.size(), ref.writes.size()) << "op=" << op;
  }
  log.Prune(UINT64_MAX, [](const Write&) { return false; });
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace copier::core
