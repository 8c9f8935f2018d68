// The one-model testbed: core::PaperConfig sizes a MixTestbed from a
// Table I row, and the paper's designs (PARIS, GPU(n), Random) come from
// that testbed.
#include "core/paper_config.h"

#include <gtest/gtest.h>

#include <set>

#include "core/fleet_runner.h"

namespace pe::core {
namespace {

TEST(PaperConfig, Table1RowsMatchPaper) {
  const auto& table = PaperTable1();
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(Table1For("shufflenet").gpc_budget, 24);
  EXPECT_EQ(Table1For("mobilenet").gpc_budget, 24);
  EXPECT_EQ(Table1For("mobilenet").gpc_budget_gpu7, 28);
  EXPECT_EQ(Table1For("resnet").gpc_budget, 48);
  EXPECT_EQ(Table1For("resnet").gpc_budget_gpu7, 56);
  EXPECT_EQ(Table1For("bert").gpc_budget, 42);
  EXPECT_EQ(Table1For("bert").gpc_budget_gpu7, 42);
  EXPECT_EQ(Table1For("bert").num_gpus, 6);
  EXPECT_EQ(Table1For("conformer").num_gpus, 8);
  EXPECT_THROW(Table1For("vgg"), std::invalid_argument);
}

TEST(PaperConfig, OneModelSizedFromTable1) {
  for (const auto& row : PaperTable1()) {
    const MixConfig c = PaperConfig(row.model);
    ASSERT_EQ(c.models.size(), 1u) << row.model;
    EXPECT_EQ(c.models[0].model, row.model);
    EXPECT_EQ(c.models[0].share, 1.0);
    EXPECT_EQ(c.num_gpus, row.num_gpus) << row.model;
    EXPECT_EQ(c.gpc_budget, row.gpc_budget) << row.model;
    EXPECT_EQ(c.swap_cost_us, 0.0);
    // The GPU(7) column is the whole cluster, which is what
    // PlanHomogeneous(7) spends.
    const int whole_cluster = hw::Cluster(c.num_gpus, c.gpu).total_gpcs();
    EXPECT_EQ(whole_cluster, row.gpc_budget_gpu7) << row.model;
  }
  EXPECT_THROW(PaperConfig("alexnet"), std::invalid_argument);
}

class PaperTestbedFixture : public ::testing::Test {
 protected:
  static const MixTestbed& tb() {
    static const MixTestbed instance{PaperConfig("resnet")};
    return instance;
  }

  static sim::SimResult RunAt(const partition::PartitionPlan& plan,
                              sched::Scheduler& scheduler, double rate_qps,
                              std::size_t num_queries, std::uint64_t seed) {
    return tb().Run(plan.instance_gpcs, scheduler,
                    tb().GenerateMix(rate_qps, num_queries, seed), seed);
  }
};

TEST_F(PaperTestbedFixture, SlaRuleIsNTimesGpu7MaxBatch) {
  const double base = tb().repertoire().profile(0).LatencySec(7, 32);
  EXPECT_NEAR(TicksToSec(tb().sla_target()), 1.5 * base, 1e-9);
}

TEST_F(PaperTestbedFixture, Gpu7SpendsWholeCluster) {
  EXPECT_EQ(tb().PlanHomogeneous(7).TotalGpcs(), 56);
  EXPECT_EQ(tb().PlanHomogeneous(3).TotalGpcs(), 48);
  EXPECT_EQ(tb().PlanHomogeneous(1).TotalGpcs(), 48);
}

TEST_F(PaperTestbedFixture, HomogeneousPlansMatchTable1) {
  EXPECT_EQ(tb().PlanHomogeneous(1).NumInstances(), 48);
  EXPECT_EQ(tb().PlanHomogeneous(2).NumInstances(), 24);
  EXPECT_EQ(tb().PlanHomogeneous(3).NumInstances(), 16);
  EXPECT_EQ(tb().PlanHomogeneous(7).NumInstances(), 8);
}

TEST_F(PaperTestbedFixture, RandomPlanStaysWithinBudget) {
  EXPECT_LE(tb().PlanRandom().TotalGpcs(), 48);
  EXPECT_EQ(tb().PlanRandom(3).instance_gpcs, tb().PlanRandom(3).instance_gpcs);
}

TEST_F(PaperTestbedFixture, ParisPlanIsHeterogeneousForResnet) {
  const auto mixed = tb().PlanMixed();
  std::set<int> sizes(mixed.plan.instance_gpcs.begin(),
                      mixed.plan.instance_gpcs.end());
  EXPECT_GT(sizes.size(), 1u);
  EXPECT_LE(mixed.plan.TotalGpcs(), 48);
  // One model owns the whole budget.
  ASSERT_EQ(mixed.budgets.size(), 1u);
  EXPECT_EQ(mixed.budgets[0], 48);
}

TEST_F(PaperTestbedFixture, SchedulerFactoryProducesAllKinds) {
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kFifs)->name(), "FIFS");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kElsa)->name(), "ELSA");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kJsq)->name(), "JSQ");
  EXPECT_EQ(tb().MakeScheduler(SchedulerKind::kGreedyFastest)->name(),
            "GreedyFastest");
}

TEST_F(PaperTestbedFixture, RunProducesCompleteRecords) {
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  const auto result =
      RunAt(tb().PlanHomogeneous(7), *sched, 200.0, 500, /*seed=*/1);
  ASSERT_EQ(result.records.size(), 500u);
  for (const auto& r : result.records) {
    EXPECT_GT(r.finished, r.arrival);
    EXPECT_GE(r.worker, 0);
    EXPECT_EQ(r.model, 0);
  }
}

TEST_F(PaperTestbedFixture, RunIsDeterministic) {
  const auto plan = tb().PlanMixed().plan;
  auto run = [&] {
    auto sched = tb().MakeScheduler(SchedulerKind::kElsa);
    const auto result = RunAt(plan, *sched, 300.0, 400, /*seed=*/99);
    return result.Stats(tb().sla_target());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.p95_latency_ms, b.p95_latency_ms);
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.completed, b.completed);
}

TEST_F(PaperTestbedFixture, GroundTruthOutlivesTestbed) {
  sim::LatencyFn fn;
  {
    const MixTestbed local(PaperConfig("mobilenet"));
    fn = local.repertoire().actual(0);
  }
  EXPECT_GT(fn(7, 8), 0.0);  // must not dangle
}

TEST_F(PaperTestbedFixture, RejectsEmptyPlan) {
  auto sched = tb().MakeScheduler(SchedulerKind::kFifs);
  EXPECT_THROW(tb().Run({}, *sched, tb().GenerateMix(100.0, 10, 1), 1),
               std::invalid_argument);
}

// MixConfig::frontend reaches the server: a one-lane frontend at 1 ms per
// query caps throughput near 1000 qps, far below what the GPU(1) backend
// completes without it.
TEST(PaperTestbed, FrontendCapsThroughput) {
  auto achieved_qps = [](bool frontend) {
    MixConfig c = PaperConfig("mobilenet");
    c.frontend.enabled = frontend;
    c.frontend.lanes = 1;
    c.frontend.cost_per_query = MsToTicks(1.0);
    const MixTestbed tb(c);
    auto sched = tb.MakeScheduler(SchedulerKind::kFifs);
    const auto trace = tb.GenerateMix(5000.0, 3000, /*seed=*/1);
    const auto result = tb.Run(tb.PlanHomogeneous(1).instance_gpcs, *sched,
                               trace, /*seed=*/1);
    return result.Stats(tb.sla_target(), 0.0).achieved_qps;
  };
  const double capped = achieved_qps(true);
  EXPECT_LE(capped, 1100.0);
  EXPECT_GT(achieved_qps(false), 2.0 * capped);
}

TEST(PaperTestbed, SchedulerKindNames) {
  EXPECT_STREQ(ToString(SchedulerKind::kFifs), "FIFS");
  EXPECT_STREQ(ToString(SchedulerKind::kElsa), "ELSA");
  EXPECT_STREQ(ToString(SchedulerKind::kJsq), "JSQ");
  EXPECT_STREQ(ToString(SchedulerKind::kGreedyFastest), "GreedyFastest");
}

TEST(PaperTestbed, UnknownModelThrows) {
  MixConfig c;
  c.models.push_back({"alexnet", 1.0, 6.0, 0.9});
  EXPECT_THROW(MixTestbed tb(c), std::invalid_argument);
}

TEST(PaperTestbed, FleetRejectsFrontend) {
  FleetTestbedConfig fc;
  fc.mix = PaperConfig("resnet");
  fc.mix.frontend.enabled = true;
  fc.num_servers = 1;
  EXPECT_THROW(FleetTestbed tb(fc), std::invalid_argument);
}

}  // namespace
}  // namespace pe::core
