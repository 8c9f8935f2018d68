#include "sched/elsa.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pe::sched {

namespace {

constexpr SimTime kMaxTicks = std::numeric_limits<SimTime>::max();

// A swap-free partition: its resident model already matches the query,
// or it has never loaded a model (-1).
bool SwapFree(const WorkerState& w, int model_id) {
  return w.resident_model == model_id || w.resident_model == -1;
}

// Waits beyond +-2^61 ticks (73 years) count as unbounded.
constexpr SimTime kWaitWindow = SimTime{1} << 61;

// `sec` seconds in ticks, clamped into the wait window (NaN -> 0).  Only
// ever a search hint, so its rounding does not matter.
SimTime HintTicks(double sec) {
  const double ticks = sec * static_cast<double>(kNsPerSec);
  if (!(ticks == ticks)) return 0;
  const double window = static_cast<double>(kWaitWindow);
  return static_cast<SimTime>(std::clamp(ticks, -window, window));
}

// For `pass` true up to some tick and false after: a tick bound no smaller
// than the last passing tick.  Inside the wait window it is exactly that
// tick; it is kMaxTicks when the whole window passes and -kWaitWindow - 1
// (below every live wait) when none of it does.  Callers re-check every
// candidate exactly, so a looser bound could only cost time.  Doubles its
// step out of `hint` (inside the window), then bisects, so a hint within
// a few ticks of the answer costs a few evaluations.
template <typename Pass>
SimTime LastPassing(SimTime hint, Pass pass) {
  SimTime lo = hint;  // passes, once bracketed
  SimTime hi = hint;  // fails, once bracketed
  if (pass(hint)) {
    for (SimTime step = 1;; step = std::min(2 * step, kWaitWindow)) {
      if (lo == kWaitWindow) return kMaxTicks;
      hi = std::min(lo + step, kWaitWindow);
      if (!pass(hi)) break;
      lo = hi;
    }
  } else {
    for (SimTime step = 1;; step = std::min(2 * step, kWaitWindow)) {
      if (hi == -kWaitWindow) return -kWaitWindow - 1;
      lo = std::max(hi - step, -kWaitWindow);
      if (pass(lo)) break;
      hi = lo;
    }
  }
  while (hi - lo > 1) {
    const SimTime mid = lo + (hi - lo) / 2;
    if (pass(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// A view re-indexed by rank: position k is the inner view's position
// order[k].  Lets Algorithm 2 run on views whose positions are not in
// (gpcs, index) order; it inherits the default (scanning)
// FirstWaitAtMost.
class RankedView final : public WorkerView {
 public:
  RankedView(const WorkerView& inner, const std::vector<std::uint32_t>& order)
      : inner_(inner), order_(order) {}

  std::size_t size() const override { return order_.size(); }
  const WorkerState& Get(std::size_t k) const override {
    return inner_.Get(order_[k]);
  }

 private:
  const WorkerView& inner_;
  const std::vector<std::uint32_t>& order_;
};

}  // namespace

ElsaScheduler::ElsaScheduler(const profile::ProfileTable& profile,
                             SimTime sla_target, ElsaParams params)
    : compiled_(profile),
      sla_target_(sla_target),
      params_(params) {
  assert(sla_target_ > 0);
}

ElsaScheduler::ElsaScheduler(const profile::ModelRepertoire& repertoire,
                             SimTime sla_target, ElsaParams params)
    : compiled_(repertoire),
      sla_target_(sla_target),
      params_(params) {
  assert(sla_target_ > 0);
  assert(!repertoire.empty());
}

double ElsaScheduler::SlackSec(const WorkerState& worker, int batch) const {
  return SlackSec(worker, /*model_id=*/0, batch);
}

double ElsaScheduler::SlackSec(const WorkerState& worker, int model_id,
                               int batch) const {
  const double t_new = compiled_.EstimateSec(model_id, worker.gpcs, batch);
  return PredictedSlack(worker, model_id, t_new);
}

double ElsaScheduler::SwapSec(const WorkerState& worker, int model_id) const {
  // Pending-swap charge: 0.0 when disabled or swap-free, so the legacy
  // predictor is reproduced exactly (x + 0.0 == x).
  return (params_.swap_cost_sec > 0.0 && !SwapFree(worker, model_id))
             ? params_.swap_cost_sec
             : 0.0;
}

double ElsaScheduler::PredictedSlack(const WorkerState& worker, int model_id,
                                     double tnew_sec) const {
  const double t_wait = TicksToSec(worker.wait_ticks);
  const double t_swap = SwapSec(worker, model_id);
  return TicksToSec(sla_target_) -
         params_.alpha * (t_wait + t_swap + params_.beta * tnew_sec);
}

double ElsaScheduler::PredictedCompletion(const WorkerState& worker,
                                          int model_id, double tnew_sec) const {
  return TicksToSec(worker.wait_ticks) + SwapSec(worker, model_id) + tnew_sec;
}

ElsaScheduler::ClassTerms ElsaScheduler::ComputeTerms(int model_id, int gpcs,
                                                      int batch) const {
  ClassTerms terms;
  terms.known = true;
  terms.tnew_sec = compiled_.EstimateSec(model_id, gpcs, batch);
  if (!(params_.alpha >= 0.0)) {
    // Slack is not monotone in the wait: every wait is a candidate.
    terms.max_wait = kMaxTicks;
    return terms;
  }
  // Step A's test with Tswap = 0 -- the exact double expression of the
  // per-candidate check, since Twait + 0.0 == Twait.
  const double sla_sec = TicksToSec(sla_target_);
  const double tnew = terms.tnew_sec;
  const auto passes = [&](SimTime wait) {
    const double slack =
        sla_sec - params_.alpha * (TicksToSec(wait) + params_.beta * tnew);
    return !(slack <= 0.0);
  };
  const double hint_sec =
      params_.alpha > 0.0 ? sla_sec / params_.alpha - params_.beta * tnew : 0.0;
  terms.max_wait = LastPassing(HintTicks(hint_sec), passes);
  return terms;
}

ElsaScheduler::ClassTerms ElsaScheduler::Terms(int model_id, int gpcs,
                                               int batch) {
  if (model_id < 0 || gpcs < 0 || batch < 0 || batch > kMemoBatchLimit) {
    return ComputeTerms(model_id, gpcs, batch);
  }
  const auto m = static_cast<std::size_t>(model_id);
  const auto b = static_cast<std::size_t>(batch);
  const auto g = static_cast<std::size_t>(gpcs);
  if (m >= memo_.size()) memo_.resize(m + 1);
  auto& by_batch = memo_[m];
  if (b >= by_batch.size()) by_batch.resize(b + 1);
  auto& by_gpcs = by_batch[b];
  if (g >= by_gpcs.size()) by_gpcs.resize(g + 1);
  ClassTerms& terms = by_gpcs[g];
  if (!terms.known) terms = ComputeTerms(model_id, gpcs, batch);
  return terms;
}

void ElsaScheduler::RefreshCandidates(const WorkerView& workers) {
  const std::size_t n = workers.size();
  const bool cacheable = workers.stable();
  if (cacheable && order_cached_ && order_.size() == n &&
      order_version_ == workers.layout_version()) {
    return;
  }
  // Workers are visited in ascending (gpcs, index) order regardless of
  // their position order in the view.  The server's live view keeps its
  // positions in that order and fixed within one layout, so the sort runs
  // once per layout there and finds the identity; ad-hoc vector views
  // re-sort per call.
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order_.begin(), order_.end(),
            [&workers](std::uint32_t a, std::uint32_t b) {
              const WorkerState& wa = workers.Get(a);
              const WorkerState& wb = workers.Get(b);
              if (wa.gpcs != wb.gpcs) return wa.gpcs < wb.gpcs;
              return wa.index < wb.index;
            });
  sorted_ = true;
  for (std::size_t k = 0; k < n; ++k) sorted_ = sorted_ && order_[k] == k;
  // Contiguous equal-gpcs runs of the sorted order: the size classes.
  runs_.clear();
  for (std::size_t k = 0; k < n;) {
    const int gpcs = workers.Get(order_[k]).gpcs;
    std::size_t e = k + 1;
    while (e < n && workers.Get(order_[e]).gpcs == gpcs) ++e;
    runs_.push_back(SizeRun{gpcs, static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(e)});
    k = e;
  }
  order_cached_ = cacheable;
  order_version_ = workers.layout_version();
}

int ElsaScheduler::OnQueryArrival(const workload::Query& query,
                                  const WorkerView& workers) {
  assert(workers.size() > 0);
  RefreshCandidates(workers);
  if (sorted_) return Decide(query, workers);
  const RankedView ranked(workers, order_);
  return Decide(query, ranked);
}

int ElsaScheduler::Decide(const workload::Query& query,
                          const WorkerView& sorted) {
  // Step A: smallest partition whose predicted slack is positive.  Slack
  // with a swap charge is at most the swap-free slack (monotone in Twait +
  // Tswap for alpha >= 0), so every positive-slack partition of a class
  // waits at most the class threshold; the view lists those candidates in
  // position order and each is verified exactly.
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const SizeRun& run = runs_[r];
    const ClassTerms terms = Terms(query.model_id, run.gpcs, query.batch);
    // k walks the class's candidates: each FirstWaitAtMost answer, then
    // on past it.
    for (std::size_t k = run.begin;; ++k) {
      k = sorted.FirstWaitAtMost(k, run.end, terms.max_wait);
      if (k == run.end) break;
      const WorkerState& w = sorted.Get(k);
      if (w.failed ||
          PredictedSlack(w, query.model_id, terms.tnew_sec) <= 0.0) {
        continue;
      }
      // Among positive-slack candidates, a swap-free partition wins over
      // the default choice when its predicted completion ties within the
      // locality window: the query avoids a model-swap penalty at no
      // predicted SLA cost.
      if (params_.locality_tie_sec > 0.0 && !SwapFree(w, query.model_id)) {
        const double bound =
            PredictedCompletion(w, query.model_id, terms.tnew_sec) +
            params_.locality_tie_sec;
        const int local = LocalityWinner(query, sorted, r, k, bound);
        if (local != kNoAssignment) return local;
      }
      return w.index;
    }
  }

  // Step B: no partition satisfies the SLA; pick minimum completion time,
  // first in position order on ties.  Completion >= Twait +
  // Testimated,new (Tswap >= 0), so within a class only waits whose
  // swap-free completion beats the running minimum can improve it.
  // Failed partitions are excluded; if every partition is failed the
  // arrival is declined (kNoAssignment) and the server parks it until
  // recovery.
  double t_min = std::numeric_limits<double>::infinity();
  int best = kNoAssignment;
  for (const SizeRun& run : runs_) {
    const double tnew = Terms(query.model_id, run.gpcs, query.batch).tnew_sec;
    const auto wait_bound = [&]() {
      if (best == kNoAssignment) return kMaxTicks;
      return LastPassing(HintTicks(t_min - tnew), [&](SimTime wait) {
        return TicksToSec(wait) + tnew < t_min;
      });
    };
    SimTime bound = wait_bound();
    for (std::size_t k = run.begin;; ++k) {
      k = sorted.FirstWaitAtMost(k, run.end, bound);
      if (k == run.end) break;
      const WorkerState& w = sorted.Get(k);
      if (w.failed) continue;
      const double t = PredictedCompletion(w, query.model_id, tnew);
      if (best == kNoAssignment || t < t_min) {
        t_min = t;
        best = w.index;
        bound = wait_bound();
      }
    }
  }
  return best;
}

int ElsaScheduler::LocalityWinner(const workload::Query& query,
                                  const WorkerView& sorted, std::size_t run,
                                  std::size_t after, double bound) {
  // The default choice is the first positive-slack, non-failed candidate,
  // so every qualifying partition comes after it.
  for (std::size_t r = run; r < runs_.size(); ++r) {
    const SizeRun& local = runs_[r];
    const ClassTerms terms = Terms(query.model_id, local.gpcs, query.batch);
    for (std::size_t k = r == run ? after + 1 : local.begin;; ++k) {
      k = sorted.FirstWaitAtMost(k, local.end, terms.max_wait);
      if (k == local.end) break;
      const WorkerState& c = sorted.Get(k);
      if (c.failed || !SwapFree(c, query.model_id)) continue;
      if (PredictedSlack(c, query.model_id, terms.tnew_sec) <= 0.0) continue;
      if (PredictedCompletion(c, query.model_id, terms.tnew_sec) <= bound) {
        return c.index;
      }
    }
  }
  return kNoAssignment;
}

}  // namespace pe::sched
