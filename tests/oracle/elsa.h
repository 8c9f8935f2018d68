// Full-scan ELSA (paper Algorithm 2): the golden baseline for
// sched::ElsaScheduler's decisions.
//
// Every arrival sorts the candidates by (gpcs, index) afresh and scans
// them with the predictor written out term by term, looking Testimated
// up through ModelRepertoire::EstimateSec each time -- no memo, no
// size-class skips, no cached order, no compiled profile:
//
//   Tswap      = swap_cost_sec if the worker's resident model is another
//                loaded model (not -1, not the query's), else 0
//   slack      = SLA - alpha * (Twait + Tswap + beta * Testimated,new)
//   completion = Twait + Tswap + Testimated,new
//
// Step A binds to the first non-failed candidate with slack > 0; when
// locality_tie_sec > 0 and that candidate would swap, the first
// non-failed, swap-free, positive-slack candidate whose completion is
// within locality_tie_sec of it wins instead.  Step B binds to the
// non-failed candidate with the smallest completion (first on ties), or
// declines when every worker is failed.
#pragma once

#include <string>

#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "sched/scheduler.h"

namespace pe::oracle {

// The four predictor knobs of sched::ElsaParams, by value.
struct ElsaKnobs {
  double alpha = 1.0;
  double beta = 1.0;
  double locality_tie_sec = 0.0;
  double swap_cost_sec = 0.0;
};

class NaiveElsa final : public sched::Scheduler {
 public:
  // `repertoire` must outlive the scheduler.
  NaiveElsa(const profile::ModelRepertoire& repertoire, SimTime sla_target,
            ElsaKnobs knobs = ElsaKnobs{});

  using Scheduler::OnQueryArrival;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override;
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "ELSA (full scan)"; }

 private:
  const profile::ModelRepertoire& repertoire_;
  SimTime sla_target_;
  ElsaKnobs knobs_;
};

}  // namespace pe::oracle
