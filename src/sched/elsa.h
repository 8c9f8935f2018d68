// ELSA: ELastic Scheduling Algorithm (paper Section IV-C, Algorithm 2).
//
// For an arriving query, ELSA predicts the SLA slack it would have on each
// partition (Eq. 1-2):
//
//   Twait      = sum(Testimated,queued) + Tremaining,current
//   SLA slack  = SLAtarget - alpha * (Twait + beta * Testimated,new)
//
// Step A: walk partitions in ascending size order and bind the query to the
// first one whose predicted slack is positive -- preferring small partitions
// maximizes GPU utilization when slack allows.
// Step B: if no partition can meet the SLA, bind to the partition with the
// minimum completion time (Twait + Testimated,new), evacuating the doomed
// query as fast as possible so it disturbs other queries the least.
//
// Testimated comes from the one-time profiled lookup table; Twait comes in
// precomputed through WorkerState (the server derives it from each queued
// query's own model profile plus the in-flight query's elapsed timestamp).
//
// Hot-path mechanics: Testimated lookups go through a CompiledProfile
// (dense arrays instead of map + lower_bound), and the size-ascending
// candidate order -- contiguous equal-gpcs runs ("size classes") -- is
// computed once per layout and cached against a stable WorkerView's
// layout_version().  Neither step scans every partition:
//  * Step A.  Slack is monotone non-increasing in Twait + Tswap under IEEE
//    rounding (alpha >= 0, Tswap >= 0), so a class holds a positive-slack
//    partition only if some member's wait is at most the class threshold:
//    the largest wait in ticks whose swap-free slack -- the same double
//    expression with Tswap = 0 -- is positive.  The threshold is found by
//    monotone search and memoized per (model, batch, gpcs) for the
//    scheduler's lifetime; it is negative when not even a zero wait
//    passes, so the live view answers such a class at once.  The
//    view's FirstWaitAtMost primitive lists the class's candidates under
//    it in position order, and each is verified with the exact slack,
//    swap and failed checks.  The locality tie-break uses the same filter,
//    starting after the default choice (nothing before it has positive
//    slack).
//  * Step B.  Branch and bound per class: completion >= Twait +
//    Testimated,new, so only waits whose swap-free completion beats the
//    running minimum can improve it.  That gives a tick bound (again by
//    monotone search over the same double expression); candidates under
//    it are compared exactly with strict `<` in position order, and the
//    bound tightens as the minimum falls.
// On the server's live view FirstWaitAtMost is an O(log W) min-tree query
// over lower bounds on each partition's free-at time, so a decision costs
// O(classes * log W) plus the candidates it verifies; ad-hoc views answer
// it with a plain scan (views whose positions are not in (gpcs, index)
// order are re-indexed by rank first), so there is one code path.  None
// of this changes any decision: every accept and every comparison is the
// plain Algorithm 2 expression on the exact wait, in the plain scan's
// order.  The golden baseline is the full-scan ELSA in tests/oracle/ (no
// thresholds, no index, no cached order, uncompiled lookups), pinned
// against this one decision by decision on random snapshot vectors and
// record by record through the engine (engine_golden_test).
//
// Multi-model extension: constructed from a ModelRepertoire, ELSA routes
// every Testimated,new lookup through the *arriving query's* model profile,
// and -- when `locality_tie_sec` is enabled -- prefers a positive-slack
// partition whose resident model already matches the query whenever its
// predicted completion ties the default choice within the threshold,
// avoiding a model-swap penalty at no predicted SLA cost.  FIFS remains
// model-oblivious as the baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "profile/compiled_profile.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "sched/scheduler.h"

namespace pe::sched {

struct ElsaParams {
  // Tuning knobs of Eq. 2 ("configurable parameters we employ to tune the
  // SLA slack predictor"); 1.0/1.0 makes the predictor exact under
  // noise-free execution.
  double alpha = 1.0;
  double beta = 1.0;
  // Model-locality tie-break window: a swap-free partition (resident
  // model already matching the query, or never loaded) wins over the
  // default Step A choice when its predicted completion is within this
  // many seconds of the default's.  0 (default) disables the tie-break,
  // reproducing the paper's model-oblivious Algorithm 2 exactly.
  double locality_tie_sec = 0.0;
  // Pending model-swap charge folded into the slack predictor: a
  // candidate whose resident model differs from the arriving query's
  // pays this many extra seconds inside Twait, i.e.
  //   slack      = SLA - alpha * (Twait + Tswap + beta * Tnew)
  //   completion = Twait + Tswap + Tnew
  // Set it to the simulator's ServerConfig::model_swap_cost (in seconds)
  // so the predictor stays honest when swaps are expensive: without the
  // term, Step A systematically over-estimates the slack of swap-needing
  // partitions and binds doomed queries to them.  0 (default) restores
  // the swap-oblivious predictor bit-for-bit (the added term is exactly
  // +0.0), which is what engine_golden_test pins.
  double swap_cost_sec = 0.0;
};

class ElsaScheduler final : public Scheduler {
 public:
  // Single-model form: `profile` must outlive the scheduler.  `sla_target`
  // is the model's SLA target (Section V: N x the max-batch latency on
  // GPU(7)).
  ElsaScheduler(const profile::ProfileTable& profile, SimTime sla_target,
                ElsaParams params = ElsaParams{});

  // Multi-model form: Testimated lookups route through the arriving
  // query's model profile.  `repertoire` must outlive the scheduler.
  ElsaScheduler(const profile::ModelRepertoire& repertoire,
                SimTime sla_target, ElsaParams params = ElsaParams{});

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const workload::Query& query,
                     const WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  // Reconfiguration hooks: ELSA's cross-call state is the per-layout
  // candidate order, which is keyed on the stable view's layout_version()
  // and self-invalidates when the server swaps layouts, and the per-class
  // thresholds, which depend on no layout; the default RequeueOrphan
  // (re-run Step A/B against the new layout) is exactly the right policy
  // for orphans -- so the base-class defaults apply.
  std::string name() const override { return "ELSA"; }

  SimTime sla_target() const { return sla_target_; }
  const ElsaParams& params() const { return params_; }

  // Predicted slack of scheduling `batch` of model 0 on a worker (exposed
  // for tests and for the slack-visualisation example).
  double SlackSec(const WorkerState& worker, int batch) const;

  // Model-aware form of the slack predictor.
  double SlackSec(const WorkerState& worker, int model_id, int batch) const;

 private:
  // Step A's filter for one (model, gpcs, batch) size class.
  struct ClassTerms {
    double tnew_sec = 0.0;  // Testimated,new
    // Largest wait in ticks whose swap-free slack passes Step A's test
    // (negative when not even a zero wait passes).
    SimTime max_wait = 0;
    bool known = false;  // memo slot filled
  };

  // Rebuilds the (gpcs, index)-ascending candidate order and its size
  // runs unless they are already cached for this view's layout.
  void RefreshCandidates(const WorkerView& workers);
  // Algorithm 2 over a view whose positions are (gpcs, index)-ascending.
  int Decide(const workload::Query& query, const WorkerView& sorted);
  // The locality tie-break: the first swap-free positive-slack candidate
  // after rank `after` (in run `run`) whose completion is <= `bound`.
  int LocalityWinner(const workload::Query& query, const WorkerView& sorted,
                     std::size_t run, std::size_t after, double bound);
  ClassTerms Terms(int model_id, int gpcs, int batch);
  // The predictor terms given Testimated,new, written exactly as
  // Algorithm 2 (and SlackSec) write them.
  double SwapSec(const WorkerState& worker, int model_id) const;
  double PredictedSlack(const WorkerState& worker, int model_id,
                        double tnew_sec) const;
  double PredictedCompletion(const WorkerState& worker, int model_id,
                             double tnew_sec) const;
  ClassTerms ComputeTerms(int model_id, int gpcs, int batch) const;

  profile::CompiledProfile compiled_;
  SimTime sla_target_;
  ElsaParams params_;

  // Candidate order (view positions, ascending by (gpcs, index)), cached
  // across arrivals while the stable view's layout_version() holds,
  // grouped into contiguous equal-gpcs runs over ranks.  `sorted_`: the
  // order is the identity, so the view is searched directly.
  struct SizeRun {
    int gpcs = 0;
    std::uint32_t begin = 0;  // [begin, end) of ranks
    std::uint32_t end = 0;
  };
  std::vector<std::uint32_t> order_;
  std::vector<SizeRun> runs_;
  bool sorted_ = false;
  std::uint64_t order_version_ = 0;
  bool order_cached_ = false;

  // memo_[model][batch][gpcs]; grown on demand (batches past
  // kMemoBatchLimit and negative keys are computed per call).
  static constexpr int kMemoBatchLimit = 4096;
  std::vector<std::vector<std::vector<ClassTerms>>> memo_;
};

}  // namespace pe::sched
