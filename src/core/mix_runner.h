// MixTestbed: one MIG inference server serving a mix of DNN models -- the
// library's single-server testbed.  A single paper model is the mix of one
// (core::PaperConfig sizes it from Table I).
//
// Owns, for the models sharing the server:
//   * a ModelRepertoire (per-model profile table + ground-truth latency),
//   * per-model batch-size distributions and traffic shares (MixSpec),
//   * the physical cluster and the total GPC budget,
//   * one SLA target (the strictest rule across the mix: the max of the
//     per-model Section V targets -- per-model SLA scheduling is a
//     follow-on, see ROADMAP).
//
// From it, callers derive the paper's designs (PARIS is PlanMixed: per-
// model PARIS within share-derived budgets; GPU(n) and Random within the
// GPC budget), generate interleaved traces, and run trace-driven
// simulations with a configurable model-swap penalty.
//
// Typical use (see examples/quickstart.cpp):
//   const core::MixTestbed tb(core::PaperConfig("resnet"));
//   const auto plan = tb.PlanMixed().plan;
//   auto elsa = tb.MakeScheduler(core::SchedulerKind::kElsa);
//   const auto trace = tb.GenerateMix(/*rate_qps=*/500, 10000, /*seed=*/1);
//   auto stats = tb.Run(plan.instance_gpcs, *elsa, trace, /*seed=*/1)
//                    .Stats(tb.sla_target());
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "partition/mix.h"
#include "partition/paris.h"
#include "partition/partitioner.h"
#include "perf/roofline.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/scheduler.h"
#include "sim/server.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::core {

enum class SchedulerKind { kFifs, kElsa, kJsq, kGreedyFastest };

const char* ToString(SchedulerKind kind);

// The scheduler factory behind every testbed.  ELSA's slack predictor is
// kept honest about the server's swap penalty: `swap_cost_us` is folded
// into ElsaParams::swap_cost_sec unless the caller tuned that knob
// explicitly (a swap-free server leaves the predictor untouched either
// way).  GreedyFastest ranks partitions by model 0's profile.
std::unique_ptr<sched::Scheduler> MakeScheduler(
    SchedulerKind kind, const profile::ModelRepertoire& repertoire,
    SimTime sla_target, double swap_cost_us,
    sched::ElsaParams elsa = sched::ElsaParams{});

struct MixModelConfig {
  std::string model = "resnet";  // model-zoo name
  double share = 1.0;            // relative traffic weight
  // Batch-size distribution (paper defaults).
  double dist_median = 6.0;
  double dist_sigma = 0.9;
};

struct MixConfig {
  std::vector<MixModelConfig> models;
  int max_batch = 32;
  double sla_n = 1.5;
  int num_gpus = 8;
  int gpc_budget = 48;
  // Model-swap penalty charged when a partition starts a query of a model
  // other than its resident one.
  double swap_cost_us = 0.0;
  double latency_noise_sigma = 0.0;
  perf::RooflineParams roofline;
  hw::GpuSpec gpu;
  partition::ParisConfig paris;
  // Optional CPU preprocessing stage in front of the GPU partitions.
  sim::FrontendConfig frontend;
};

// The declarative scenario equivalent of `config`'s mix at `rate_qps`
// total offered load: constant rate, static weights, the configured batch
// distributions.  Presets and key=val overrides (workload::ApplyScenario)
// reshape it; drained unmodified it is bit-identical to MixTraceSource on
// the same spec and seed.
workload::ScenarioSpec ScenarioFor(const MixConfig& config, double rate_qps);

class MixTestbed {
 public:
  explicit MixTestbed(MixConfig config);

  const MixConfig& config() const { return config_; }
  const profile::ModelRepertoire& repertoire() const { return repertoire_; }
  const hw::Cluster& cluster() const { return cluster_; }
  SimTime sla_target() const { return sla_target_; }
  int num_models() const { return repertoire_.size(); }

  // The traffic mix (components borrow this testbed's distributions).
  const workload::MixSpec& mix() const { return mix_; }

  // Symbolic model names indexed by model id (the models[] vector of a
  // captured paris-elsa-trace-v1 document).
  std::vector<std::string> ModelNames() const;

  // Mixed-PARIS planner inputs for a subset of this testbed's models, with
  // their *global* traffic shares (PlanMixedParis renormalizes within the
  // subset).  The one builder behind PlanMixed and the fleet's per-server
  // planner pass, so both always agree on shares and distributions.
  std::vector<partition::MixModelInput> PlannerInputs(
      const std::vector<int>& model_ids) const;

  // --- Partition plans -----------------------------------------------
  // PARIS: per-model PARIS within share-derived budgets, union packed on
  // the cluster.  For one model this is ParisPartitioner::Plan on the
  // whole budget, instance for instance.
  partition::MixedPlan PlanMixed() const;
  // GPU(n): homogeneous n-GPC partitions.  GPU(7) spends the whole
  // cluster (Table I's GPU(7) column is 7 x GPUs); every other size gets
  // gpc_budget.
  partition::PartitionPlan PlanHomogeneous(int partition_gpcs) const;
  // Random: seeded random partition sizes within gpc_budget.
  partition::PartitionPlan PlanRandom(std::uint64_t seed = 0xBADD5EED) const;

  // core::ScenarioFor over this testbed's config.
  workload::ScenarioSpec ScenarioFor(double rate_qps) const;

  // Interleaved multi-model trace at `rate_qps` total offered load
  // (drains ScenarioFor(rate_qps) on a fresh Rng(seed)).
  workload::QueryTrace GenerateMix(double rate_qps, std::size_t num_queries,
                                   std::uint64_t seed) const;

  std::unique_ptr<sched::Scheduler> MakeScheduler(
      SchedulerKind kind, sched::ElsaParams elsa = sched::ElsaParams{}) const;

  // Replays `trace` on a server with the given partition sizes.  `seed`
  // drives only the server's internal streams (noise).
  sim::SimResult Run(const std::vector<int>& partition_gpcs,
                     sched::Scheduler& scheduler,
                     const workload::QueryTrace& trace,
                     std::uint64_t seed) const;

 private:
  MixConfig config_;
  profile::ModelRepertoire repertoire_;
  std::vector<std::unique_ptr<workload::BatchDistribution>> dists_;
  workload::MixSpec mix_;
  hw::Cluster cluster_;
  SimTime sla_target_;
};

}  // namespace pe::core
