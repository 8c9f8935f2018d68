// FreeAtIndex (sim/free_at_index.h): random key updates and
// leftmost-key-at-most-bound range queries, every answer checked against
// a brute-force scan -- including kNever entries, a single position,
// non-power-of-two sizes and 256 positions.
#include "sim/free_at_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace pe::sim {
namespace {

std::size_t BruteLeftmost(const std::vector<SimTime>& keys, std::size_t begin,
                          std::size_t end, SimTime bound) {
  for (std::size_t i = begin; i < end; ++i) {
    if (keys[i] != FreeAtIndex::kNever && keys[i] <= bound) return i;
  }
  return end;
}

// A key drawn from a narrow range (so ties and near-misses are common),
// sometimes kNever, sometimes negative.
SimTime RandomKey(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.15) return FreeAtIndex::kNever;
  if (u < 0.25) return -rng.UniformInt(0, 50);
  return rng.UniformInt(0, 200);
}

TEST(FreeAtIndex, MatchesBruteForceUnderRandomUpdates) {
  Rng rng(0xF4EE);
  const std::vector<std::size_t> sizes = {1, 2, 3, 5, 12, 31, 100, 141, 256};
  for (const std::size_t n : sizes) {
    FreeAtIndex index;
    const SimTime initial = rng.UniformInt(0, 100);
    index.Assign(n, initial);
    std::vector<SimTime> keys(n, initial);
    ASSERT_EQ(index.size(), n);
    const auto top = static_cast<std::int64_t>(n);
    for (int op = 0; op < 4000; ++op) {
      if (rng.NextDouble() < 0.5) {
        const auto i = static_cast<std::size_t>(rng.UniformInt(0, top - 1));
        keys[i] = RandomKey(rng);
        index.Set(i, keys[i]);
        ASSERT_EQ(index.key(i), keys[i]);
        continue;
      }
      const auto a = static_cast<std::size_t>(rng.UniformInt(0, top));
      const auto b = static_cast<std::size_t>(rng.UniformInt(0, top));
      const std::size_t begin = std::min(a, b);
      const std::size_t end = std::max(a, b);
      SimTime bound = rng.UniformInt(0, 220);
      const double u = rng.NextDouble();
      if (u < 0.05) bound = FreeAtIndex::kNever;
      if (u >= 0.05 && u < 0.1) bound = -rng.UniformInt(0, 60);
      ASSERT_EQ(index.LeftmostAtMost(begin, end, bound),
                BruteLeftmost(keys, begin, end, bound))
          << "n " << n << " op " << op;
    }
  }
}

TEST(FreeAtIndex, NeverEntriesAreNeverReported) {
  FreeAtIndex index;
  index.Assign(7, FreeAtIndex::kNever);
  EXPECT_EQ(index.LeftmostAtMost(0, 7, FreeAtIndex::kNever), 7u);
  index.Set(4, FreeAtIndex::kNever - 1);
  EXPECT_EQ(index.LeftmostAtMost(0, 7, FreeAtIndex::kNever), 4u);
  EXPECT_EQ(index.LeftmostAtMost(0, 4, FreeAtIndex::kNever), 4u);
  EXPECT_EQ(index.LeftmostAtMost(5, 7, FreeAtIndex::kNever), 7u);
}

TEST(FreeAtIndex, AssignResetsEveryKey) {
  FreeAtIndex index;
  index.Assign(9, 5);
  index.Set(3, -1);
  index.Assign(3, 10);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.LeftmostAtMost(0, 3, 9), 3u);
  EXPECT_EQ(index.LeftmostAtMost(1, 3, 10), 1u);
  EXPECT_EQ(index.LeftmostAtMost(2, 2, 10), 2u);  // empty range
}

}  // namespace
}  // namespace pe::sim
