#include "oracle/elsa.h"

#include <algorithm>
#include <vector>

namespace pe::oracle {

NaiveElsa::NaiveElsa(const profile::ModelRepertoire& repertoire,
                     SimTime sla_target, ElsaKnobs knobs)
    : repertoire_(repertoire), sla_target_(sla_target), knobs_(knobs) {}

int NaiveElsa::OnQueryArrival(const workload::Query& query,
                              const sched::WorkerView& workers) {
  std::vector<sched::WorkerState> order;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    order.push_back(workers.Get(i));
  }
  std::sort(order.begin(), order.end(),
            [](const sched::WorkerState& a, const sched::WorkerState& b) {
              if (a.gpcs != b.gpcs) return a.gpcs < b.gpcs;
              return a.index < b.index;
            });

  const auto swap_free = [&](const sched::WorkerState& w) {
    return w.resident_model == -1 || w.resident_model == query.model_id;
  };
  const auto t_swap = [&](const sched::WorkerState& w) {
    return knobs_.swap_cost_sec > 0.0 && !swap_free(w) ? knobs_.swap_cost_sec
                                                       : 0.0;
  };
  const auto t_new = [&](const sched::WorkerState& w) {
    return repertoire_.EstimateSec(query.model_id, w.gpcs, query.batch);
  };
  const auto slack = [&](const sched::WorkerState& w) {
    return TicksToSec(sla_target_) -
           knobs_.alpha * (TicksToSec(w.wait_ticks) + t_swap(w) +
                           knobs_.beta * t_new(w));
  };
  const auto completion = [&](const sched::WorkerState& w) {
    return TicksToSec(w.wait_ticks) + t_swap(w) + t_new(w);
  };

  // Step A: the smallest partition predicted to meet the SLA.
  for (const sched::WorkerState& w : order) {
    if (w.failed || slack(w) <= 0.0) continue;
    if (knobs_.locality_tie_sec > 0.0 && !swap_free(w)) {
      const double bound = completion(w) + knobs_.locality_tie_sec;
      for (const sched::WorkerState& c : order) {
        if (!c.failed && slack(c) > 0.0 && swap_free(c) &&
            completion(c) <= bound) {
          return c.index;
        }
      }
    }
    return w.index;
  }

  // Step B: nothing meets the SLA; evacuate to the earliest completion.
  int best = sched::kNoAssignment;
  double best_completion = 0.0;
  for (const sched::WorkerState& w : order) {
    if (w.failed) continue;
    const double t = completion(w);
    if (best == sched::kNoAssignment || t < best_completion) {
      best = w.index;
      best_completion = t;
    }
  }
  return best;
}

}  // namespace pe::oracle
