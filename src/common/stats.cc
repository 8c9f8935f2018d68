#include "common/stats.h"

#include <algorithm>
#include <cassert>

namespace pe {

std::vector<double> SelectPercentiles(std::span<double> samples,
                                      std::initializer_list<double> ps) {
  std::vector<double> out;
  out.reserve(ps.size());
  const std::size_t n = samples.size();
  // samples[0, done) holds the `done` smallest values, and samples[done-1]
  // is in its sorted position: the next (larger) rank selects from `done`.
  std::size_t done = 0;
  for (const double p : ps) {
    assert(p >= 0.0 && p <= 100.0);
    if (n <= 1) {
      out.push_back(n == 0 ? 0.0 : samples[0]);
      continue;
    }
    const double rank = (p / 100.0) * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    assert(lo + 1 >= done && "percentiles must come in non-decreasing order");
    if (lo >= done) {
      std::nth_element(samples.begin() + static_cast<std::ptrdiff_t>(done),
                       samples.begin() + static_cast<std::ptrdiff_t>(lo),
                       samples.end());
      done = lo + 1;
    }
    if (lo + 1 >= n) {
      out.push_back(samples[n - 1]);
      continue;
    }
    // Everything past `lo` is at least samples[lo]: the next order
    // statistic is their minimum.
    const double hi = *std::min_element(
        samples.begin() + static_cast<std::ptrdiff_t>(lo + 1), samples.end());
    out.push_back(samples[lo] * (1.0 - frac) + hi * frac);
  }
  return out;
}

double Percentile::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

}  // namespace pe
