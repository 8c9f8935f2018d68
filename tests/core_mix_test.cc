// MixTestbed end-to-end tests, including the reference contract of the
// one-model path: MixTestbed(PaperConfig(m)) replays record-for-record like
// the single-model pipeline built by hand from primitives (profiler, the
// three partitioners with Table I budgets, the scenario generator, and the
// single-model InferenceServer).
#include <gtest/gtest.h>

#include <memory>

#include "core/mix_runner.h"
#include "core/paper_config.h"
#include "partition/homogeneous.h"
#include "partition/paris.h"
#include "partition/random_partition.h"
#include "perf/model_zoo.h"
#include "profile/profiler.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "workload/batch_dist.h"

namespace pe::core {
namespace {

TEST(MixTestbed, RejectsDegenerateConfigs) {
  EXPECT_THROW(MixTestbed{MixConfig{}}, std::invalid_argument);
  MixConfig dup;
  dup.models.push_back({"resnet", 0.5, 6.0, 0.9});
  dup.models.push_back({"resnet", 0.5, 6.0, 0.9});
  EXPECT_THROW(MixTestbed{dup}, std::invalid_argument);
  MixConfig negative;
  negative.models.push_back({"resnet", 1.0, 6.0, 0.9});
  negative.swap_cost_us = -1.0;
  EXPECT_THROW(MixTestbed{negative}, std::invalid_argument);
}

// The single-model pipeline as the paper describes it, assembled from
// primitives with no core:: testbed involved.
class HandBuiltPaperServer {
 public:
  explicit HandBuiltPaperServer(const std::string& model)
      : row_(Table1For(model)),
        engine_(hw::GpuSpec{}, perf::RooflineParams{}),
        model_(perf::BuildModelByName(model)),
        profile_(profile::Profiler(engine_).Profile(model_)),
        dist_(6.0, 0.9, 32),
        cluster_(row_.num_gpus, hw::GpuSpec{}),
        sla_(SlaTarget(profile_, 32, 1.5)) {}

  SimTime sla() const { return sla_; }

  // Table I budgets: GPU(7) gets the GPU(7) column, the rest the standard
  // one.
  partition::PartitionPlan Plan(const std::string& design) const {
    if (design == "paris") {
      partition::ParisPartitioner paris(profile_, dist_);
      return paris.Plan(cluster_, row_.gpc_budget);
    }
    if (design == "gpu7") {
      partition::HomogeneousPartitioner gpu7(7);
      return gpu7.Plan(cluster_, row_.gpc_budget_gpu7);
    }
    if (design == "gpu1") {
      partition::HomogeneousPartitioner gpu1(1);
      return gpu1.Plan(cluster_, row_.gpc_budget);
    }
    partition::RandomPartitioner random(0xBADD5EED);
    return random.Plan(cluster_, row_.gpc_budget);
  }

  sim::SimResult Run(const partition::PartitionPlan& plan, bool elsa,
                     double rate_qps, std::size_t num_queries,
                     std::uint64_t seed) const {
    workload::ScenarioSpec spec;
    spec.rate.base_qps = rate_qps;
    spec.max_batch = 32;
    workload::ComponentSpec c;
    c.model_name = row_.model;
    spec.components.push_back(c);
    const auto trace =
        workload::GenerateScenarioTrace(spec, num_queries, seed);

    std::unique_ptr<sched::Scheduler> scheduler;
    if (elsa) {
      scheduler = std::make_unique<sched::ElsaScheduler>(profile_, sla_);
    } else {
      scheduler = std::make_unique<sched::FifsScheduler>();
    }
    sim::ServerConfig sc;
    sc.partition_gpcs = plan.instance_gpcs;
    sc.sla_target = sla_;
    sc.seed = seed ^ 0xA5A5A5A5ULL;
    const sim::LatencyFn actual = [this](int gpcs, int batch) {
      return engine_.LatencySec(model_, gpcs, batch);
    };
    sim::InferenceServer server(sc, profile_, *scheduler, actual);
    return server.Run(trace);
  }

 private:
  ModelServerConfig row_;
  perf::RooflineEngine engine_;
  perf::DnnModel model_;
  profile::ProfileTable profile_;
  workload::LogNormalBatchDist dist_;
  hw::Cluster cluster_;
  SimTime sla_;
};

TEST(MixTestbed, PaperConfigMatchesHandBuiltSingleModelPath) {
  const double rate_qps = 400.0;
  const std::size_t num_queries = 3000;
  const std::uint64_t seed = 5;
  for (const auto& row : PaperTable1()) {
    const HandBuiltPaperServer reference(row.model);
    const MixTestbed tb(PaperConfig(row.model));
    EXPECT_EQ(tb.sla_target(), reference.sla()) << row.model;

    const std::pair<std::string, partition::PartitionPlan> designs[] = {
        {"paris", tb.PlanMixed().plan},
        {"gpu7", tb.PlanHomogeneous(7)},
        {"gpu1", tb.PlanHomogeneous(1)},
        {"random", tb.PlanRandom()}};
    for (const auto& [design, plan] : designs) {
      const auto expected_plan = reference.Plan(design);
      // Equal in order, not just as multisets: worker ids follow it.
      ASSERT_EQ(plan.instance_gpcs, expected_plan.instance_gpcs)
          << row.model << " " << design;
      for (const bool elsa : {false, true}) {
        SCOPED_TRACE(row.model + " " + design + (elsa ? " ELSA" : " FIFS"));
        const auto expected =
            reference.Run(expected_plan, elsa, rate_qps, num_queries, seed);
        const auto kind = elsa ? SchedulerKind::kElsa : SchedulerKind::kFifs;
        auto scheduler = tb.MakeScheduler(kind);
        const auto actual =
            tb.Run(plan.instance_gpcs, *scheduler,
                   tb.GenerateMix(rate_qps, num_queries, seed), seed);
        ASSERT_EQ(actual.records.size(), expected.records.size());
        for (std::size_t i = 0; i < expected.records.size(); ++i) {
          const auto& e = expected.records[i];
          const auto& a = actual.records[i];
          ASSERT_EQ(a.id, e.id) << "query " << i;
          ASSERT_EQ(a.batch, e.batch) << "query " << i;
          ASSERT_EQ(a.model, 0) << "query " << i;
          ASSERT_EQ(a.arrival, e.arrival) << "query " << i;
          ASSERT_EQ(a.dispatched, e.dispatched) << "query " << i;
          ASSERT_EQ(a.started, e.started) << "query " << i;
          ASSERT_EQ(a.finished, e.finished) << "query " << i;
          ASSERT_EQ(a.worker, e.worker) << "query " << i;
          ASSERT_EQ(a.worker_gpcs, e.worker_gpcs) << "query " << i;
          ASSERT_FALSE(a.model_swap) << "query " << i;
        }
      }
    }
  }
}

TEST(MixTestbed, TwoModelMixServesBothWithinPlan) {
  MixConfig mc;
  mc.models.push_back({"resnet", 0.6, 6.0, 0.9});
  mc.models.push_back({"mobilenet", 0.4, 4.0, 0.9});
  mc.swap_cost_us = 500.0;
  const MixTestbed tb(mc);
  ASSERT_EQ(tb.num_models(), 2);

  const auto mixed = tb.PlanMixed();
  EXPECT_EQ(mixed.budgets.size(), 2u);
  EXPECT_LE(mixed.plan.TotalGpcs(), mc.gpc_budget);

  const auto trace = tb.GenerateMix(250.0, 2000, /*seed=*/3);
  EXPECT_EQ(trace.NumModels(), 2);
  auto scheduler = tb.MakeScheduler(SchedulerKind::kElsa);
  const auto result =
      tb.Run(mixed.plan.instance_gpcs, *scheduler, trace, /*seed=*/3);
  const auto stats = result.Stats(tb.sla_target(), /*warmup_fraction=*/0.0);

  EXPECT_EQ(stats.completed, trace.size());
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_GT(stats.models[0].completed, 0u);
  EXPECT_GT(stats.models[1].completed, 0u);
  EXPECT_EQ(stats.models[0].completed + stats.models[1].completed,
            stats.completed);
  // Interleaved traffic on shared partitions must have displaced models.
  EXPECT_GT(stats.model_swaps, 0u);
}

}  // namespace
}  // namespace pe::core
