// Differential test of the set-cover enumerations (rewrite/set_cover.h)
// against brute force over every subset of the sets, on seeded random set
// systems: universes of at most 12 elements, at most 16 sets, caps
// {1, 2, 5, 64} plus an unbounded run.
//
//   - An untruncated output equals the brute-force list exactly.
//   - A truncated output is sorted and a subset of the brute-force list.
//     FindAllMinimumCovers returns exactly `cap` covers; FindAllMinimalCovers
//     at most `cap`, because its cap counts the covers the search reaches
//     before the non-minimal ones are dropped.
//   - The exact truncated lists hash to a pinned value, so any change of
//     where the search stops is caught here, not only by plan digests.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rewrite/set_cover.h"

namespace vbr {
namespace {

using Covers = std::vector<std::vector<size_t>>;

constexpr size_t kCaps[] = {1, 2, 5, 64, std::numeric_limits<size_t>::max()};

struct SetSystem {
  uint64_t universe = 0;
  std::vector<uint64_t> sets;
};

SetSystem RandomSystem(Rng& rng) {
  const int64_t elements = rng.UniformInt(0, 12);
  const int64_t num_sets = rng.UniformInt(0, 16);
  const double density = 0.05 + 0.6 * rng.UniformDouble();
  SetSystem system{(uint64_t{1} << elements) - 1, {}};
  for (int64_t i = 0; i < num_sets; ++i) {
    uint64_t set = 0;
    for (int64_t e = 0; e < elements; ++e) {
      if (rng.Bernoulli(density)) set |= uint64_t{1} << e;
    }
    system.sets.push_back(set);
  }
  return system;
}

// Every minimal cover, sorted: a subset of the sets whose union is the
// universe and from which no set can be dropped.
Covers BruteForceMinimal(const SetSystem& system) {
  const size_t n = system.sets.size();
  std::vector<uint64_t> unions(size_t{1} << n, 0);
  for (size_t mask = 1; mask < unions.size(); ++mask) {
    unions[mask] = unions[mask & (mask - 1)] |
                   system.sets[static_cast<size_t>(std::countr_zero(mask))];
  }
  const auto covers = [&](size_t mask) {
    return (unions[mask] & system.universe) == system.universe;
  };
  Covers out;
  for (size_t mask = 0; mask < unions.size(); ++mask) {
    if (!covers(mask)) continue;
    std::vector<size_t> cover;
    bool minimal = true;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i & 1) == 0) continue;
      cover.push_back(i);
      if (covers(mask & ~(size_t{1} << i))) minimal = false;
    }
    if (minimal) out.push_back(std::move(cover));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// FNV-1a over the 8 bytes of `value`.
void HashInto(uint64_t* hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash = (*hash ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
  }
}

// Checks one output against the brute-force list; returns whether it was
// truncated, after folding a truncated one into `hash`.
bool CheckOutput(const Covers& got, bool truncated, size_t cap,
                 bool exact_count, const Covers& expected, uint64_t* hash) {
  if (!truncated) {
    EXPECT_EQ(got, expected);
    return false;
  }
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()));
  EXPECT_TRUE(exact_count ? got.size() == cap : got.size() <= cap)
      << got.size() << " covers";
  HashInto(hash, cap);
  HashInto(hash, got.size());
  for (const auto& cover : got) {
    HashInto(hash, cover.size());
    for (size_t i : cover) HashInto(hash, i);
  }
  return true;
}

TEST(SetCoverDifferentialTest, MatchesBruteForceAndPinsTruncation) {
  Rng rng(20010521);
  uint64_t hash = 0xcbf29ce484222325ULL;
  size_t truncated = 0;
  size_t complete = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const SetSystem system = RandomSystem(rng);
    const Covers minimal = BruteForceMinimal(system);
    // Every minimum cover is minimal, so the minimum ones are the smallest.
    size_t min_size = std::numeric_limits<size_t>::max();
    for (const auto& cover : minimal) {
      min_size = std::min(min_size, cover.size());
    }
    Covers minimum;
    std::copy_if(minimal.begin(), minimal.end(), std::back_inserter(minimum),
                 [&](const auto& cover) { return cover.size() == min_size; });
    for (size_t cap : kCaps) {
      SCOPED_TRACE("cap " + std::to_string(cap));
      const MinimumCoversResult min_result =
          FindAllMinimumCovers(system.universe, system.sets, cap);
      EXPECT_EQ(min_result.feasible, !minimum.empty());
      EXPECT_FALSE(min_result.aborted);
      if (!minimum.empty()) {
        EXPECT_EQ(min_result.min_size, min_size);
      }
      bool minimal_truncated = false;
      const Covers minimal_result = FindAllMinimalCovers(
          system.universe, system.sets, cap, &minimal_truncated);
      for (const bool was_truncated :
           {CheckOutput(min_result.covers, min_result.truncated, cap,
                        /*exact_count=*/true, minimum, &hash),
            CheckOutput(minimal_result, minimal_truncated, cap,
                        /*exact_count=*/false, minimal, &hash)}) {
        ++(was_truncated ? truncated : complete);
      }
    }
  }
  // Both regimes are exercised, and the truncation points are pinned.
  EXPECT_GT(truncated, 100u);
  EXPECT_GT(complete, 1000u);
  EXPECT_EQ(hash, 0x234f342eb38a673fULL) << "truncated outputs moved";
}

}  // namespace
}  // namespace vbr
