// FreeAtIndex: an array-based min-tree over worker positions.
//
// The server's live scheduler view keeps one key per worker -- a lower
// bound on the absolute instant the worker drains its estimated work (see
// PartitionWorker::FreeAtBound) -- and answers ELSA's one search
// primitive from it: the leftmost position in a range whose key is at
// most a bound.  Both the update and the query are O(log W); the tree is
// a flat power-of-two array (leaves at [leaves, 2 * leaves), padding
// leaves hold kNever), so there is no pointer chasing and no allocation
// after Assign.
//
// kNever marks a worker that can never take work (a failed partition);
// LeftmostAtMost never reports it, whatever the bound.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/sim_time.h"

namespace pe::sim {

class FreeAtIndex {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  // Resets to `n` positions, every key `key`.
  void Assign(std::size_t n, SimTime key) {
    n_ = n;
    leaves_ = 1;
    while (leaves_ < n) leaves_ <<= 1;
    tree_.assign(2 * leaves_, kNever);
    std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(leaves_),
              tree_.begin() + static_cast<std::ptrdiff_t>(leaves_ + n), key);
    for (std::size_t p = leaves_ - 1; p >= 1; --p) Pull(p);
  }

  std::size_t size() const { return n_; }

  SimTime key(std::size_t i) const {
    assert(i < n_);
    return tree_[leaves_ + i];
  }

  void Set(std::size_t i, SimTime key) {
    assert(i < n_);
    std::size_t p = leaves_ + i;
    tree_[p] = key;
    // An ancestor whose minimum did not move leaves every higher one
    // unchanged too.
    for (p >>= 1; p >= 1; p >>= 1) {
      const SimTime m = std::min(tree_[2 * p], tree_[2 * p + 1]);
      if (tree_[p] == m) break;
      tree_[p] = m;
    }
  }

  // Leftmost position in [begin, end) whose key is <= bound, or `end`
  // when there is none.  kNever keys never qualify.
  std::size_t LeftmostAtMost(std::size_t begin, std::size_t end,
                             SimTime bound) const {
    assert(begin <= end && end <= n_);
    bound = std::min(bound, kNever - 1);
    // Canonical cover of [begin, end): left-side nodes come out in
    // position order; right-side nodes come out right to left, so they
    // are buffered and tried afterwards in reverse.
    std::size_t right[64];
    std::size_t num_right = 0;
    std::size_t l = begin + leaves_;
    std::size_t r = end + leaves_;
    while (l < r) {
      if ((l & 1) != 0) {
        if (tree_[l] <= bound) return Descend(l, bound);
        ++l;
      }
      if ((r & 1) != 0) right[num_right++] = --r;
      l >>= 1;
      r >>= 1;
    }
    while (num_right > 0) {
      const std::size_t node = right[--num_right];
      if (tree_[node] <= bound) return Descend(node, bound);
    }
    return end;
  }

 private:
  void Pull(std::size_t p) {
    tree_[p] = std::min(tree_[2 * p], tree_[2 * p + 1]);
  }

  // Leftmost leaf under `node` (whose minimum is <= bound) with key <=
  // bound.
  std::size_t Descend(std::size_t node, SimTime bound) const {
    while (node < leaves_) {
      node <<= 1;
      if (tree_[node] > bound) ++node;
    }
    return node - leaves_;
  }

  std::size_t n_ = 0;
  std::size_t leaves_ = 1;
  std::vector<SimTime> tree_ = std::vector<SimTime>(2, kNever);
};

}  // namespace pe::sim
