#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace pe {
namespace {

TEST(Percentile, EmptyReturnsZero) {
  Percentile p;
  EXPECT_EQ(p.Value(50), 0.0);
  EXPECT_EQ(p.P95(), 0.0);
}

TEST(Percentile, SingleSample) {
  Percentile p;
  p.Add(42.0);
  EXPECT_DOUBLE_EQ(p.Value(0), 42.0);
  EXPECT_DOUBLE_EQ(p.Value(100), 42.0);
  EXPECT_DOUBLE_EQ(p.P95(), 42.0);
}

TEST(Percentile, MedianOfOddCount) {
  Percentile p;
  for (double x : {5.0, 1.0, 3.0}) p.Add(x);
  EXPECT_DOUBLE_EQ(p.P50(), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  Percentile p;
  p.Add(10.0);
  p.Add(20.0);
  EXPECT_DOUBLE_EQ(p.P50(), 15.0);
  EXPECT_DOUBLE_EQ(p.Value(25), 12.5);
}

TEST(Percentile, P95OfUniformRamp) {
  Percentile p;
  for (int i = 1; i <= 100; ++i) p.Add(static_cast<double>(i));
  EXPECT_NEAR(p.P95(), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(p.Max(), 100.0);
  EXPECT_DOUBLE_EQ(p.Mean(), 50.5);
}

TEST(Percentile, AddAfterQueryStillCorrect) {
  Percentile p;
  p.Add(1.0);
  EXPECT_DOUBLE_EQ(p.P50(), 1.0);
  p.Add(3.0);
  EXPECT_DOUBLE_EQ(p.P50(), 2.0);  // selection sees every added sample
}

TEST(Percentile, ClearResets) {
  Percentile p;
  p.Add(1.0);
  p.Clear();
  EXPECT_EQ(p.count(), 0u);
  EXPECT_EQ(p.P95(), 0.0);
}

TEST(SelectPercentiles, MatchesSortedInterpolationBitForBit) {
  // Selection must read the same order statistics a full sort does and
  // combine them with the same arithmetic, on ties and uneven ranks too.
  std::vector<double> samples;
  std::uint64_t x = 12345;
  for (int i = 0; i < 1001; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back(static_cast<double>((x >> 33) % 997) / 7.0);
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> ps = {0.0, 12.5, 50.0, 95.0, 95.0, 99.0, 100.0};
  const auto got = SelectPercentiles(
      samples, {0.0, 12.5, 50.0, 95.0, 95.0, 99.0, 100.0});
  ASSERT_EQ(got.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double rank =
        (ps[i] / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double want =
        lo + 1 >= sorted.size()
            ? sorted.back()
            : sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
    EXPECT_EQ(got[i], want) << "p" << ps[i];
  }
}

}  // namespace
}  // namespace pe
