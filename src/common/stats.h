// Statistics utilities used by the metrics and fault layers:
//  * SelectPercentiles -- exact percentiles of an unsorted sample set by
//                         linear-time selection (tail latency is the
//                         paper's headline metric, so samples are kept
//                         exact rather than sketched).
//  * Percentile        -- a retained sample vector read through
//                         SelectPercentiles.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace pe {

// The ps[i]-th percentile (each p in [0, 100], non-decreasing) of
// `samples`, by linear interpolation between closest ranks: rank
// r = p/100 * (n-1), value s[floor(r)] * (1-f) + s[floor(r)+1] * f with
// f = r - floor(r) over the sorted samples; p = 100 is the maximum and an
// empty set reads 0.  Selection (std::nth_element) places the same order
// statistics a full sort would, so the values are bit-identical to
// sorting first, at linear cost.  Reorders `samples`.
std::vector<double> SelectPercentiles(std::span<double> samples,
                                      std::initializer_list<double> ps);

// Exact percentile estimator over retained samples.
class Percentile {
 public:
  void Add(double x) { samples_.push_back(x); }

  std::size_t count() const { return samples_.size(); }

  // The p-th percentile (p in [0, 100]); see SelectPercentiles.  Returns 0
  // for an empty set.
  double Value(double p) const { return SelectPercentiles(samples_, {p})[0]; }

  // Convenience accessors for the percentiles the paper reports.
  double P50() const { return Value(50.0); }
  double P95() const { return Value(95.0); }
  double P99() const { return Value(99.0); }

  double Mean() const;
  double Max() const { return Value(100.0); }

  void Clear() { samples_.clear(); }

 private:
  // Mutable: selection reorders the samples, never changes the multiset.
  mutable std::vector<double> samples_;
};

}  // namespace pe
