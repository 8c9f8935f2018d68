// Fleet aggregation fidelity: FleetResult::Stats (per-server folds past
// the fleet's warm-up cut, merged) must equal the merged-copy oracle
// (oracle::MergedCopyStats) field for field -- exact percentiles,
// per-model slices, worker utilizations, tick-sum means, and the cut's
// tie rule -- across router policies, seeds, and jobs counts.  Plus the
// unplaced-model routing-error regression at the fleet level.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "fleet/cluster.h"
#include "fleet/router.h"
#include "oracle/fleet.h"
#include "sim/metrics.h"
#include "workload/trace.h"

namespace pe::core {
namespace {

FleetTestbedConfig MixedFleet(int servers, fleet::RouterPolicy policy,
                              std::uint64_t seed) {
  FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.4, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.3, 4.0, 0.8});
  fc.mix.models.push_back({"bert", 0.3, 2.0, 0.7});
  fc.mix.swap_cost_us = 200.0;
  fc.mix.latency_noise_sigma = 0.2;  // consume the per-server RNG streams
  fc.num_servers = servers;
  fc.placement = fleet::PlacementKind::kSharded;
  fc.replicas = 2;
  fc.policy = policy;
  fc.seed = seed;
  return fc;
}

void ExpectIdenticalServerStats(const sim::ServerStats& fast,
                                const sim::ServerStats& ref,
                                const std::string& label) {
  EXPECT_EQ(fast.completed, ref.completed) << label;
  // EXPECT_EQ on doubles is bit-exact equality -- the fast path must
  // reproduce the reference arithmetic, not approximate it.
  EXPECT_EQ(fast.mean_latency_ms, ref.mean_latency_ms) << label;
  EXPECT_EQ(fast.p50_latency_ms, ref.p50_latency_ms) << label;
  EXPECT_EQ(fast.p95_latency_ms, ref.p95_latency_ms) << label;
  EXPECT_EQ(fast.p99_latency_ms, ref.p99_latency_ms) << label;
  EXPECT_EQ(fast.max_latency_ms, ref.max_latency_ms) << label;
  EXPECT_EQ(fast.mean_queue_delay_ms, ref.mean_queue_delay_ms) << label;
  EXPECT_EQ(fast.sla_violation_rate, ref.sla_violation_rate) << label;
  EXPECT_EQ(fast.achieved_qps, ref.achieved_qps) << label;
  EXPECT_EQ(fast.mean_worker_utilization, ref.mean_worker_utilization)
      << label;
  EXPECT_EQ(fast.reconfig_stalled, ref.reconfig_stalled) << label;
  EXPECT_EQ(fast.model_swaps, ref.model_swaps) << label;
  EXPECT_EQ(fast.failed, ref.failed) << label;
  EXPECT_EQ(fast.shed, ref.shed) << label;

  ASSERT_EQ(fast.workers.size(), ref.workers.size()) << label;
  for (std::size_t w = 0; w < ref.workers.size(); ++w) {
    const std::string wl = label + " worker " + std::to_string(w);
    EXPECT_EQ(fast.workers[w].index, ref.workers[w].index) << wl;
    EXPECT_EQ(fast.workers[w].gpcs, ref.workers[w].gpcs) << wl;
    EXPECT_EQ(fast.workers[w].busy_ticks, ref.workers[w].busy_ticks) << wl;
    EXPECT_EQ(fast.workers[w].queries, ref.workers[w].queries) << wl;
    EXPECT_EQ(fast.workers[w].utilization, ref.workers[w].utilization) << wl;
  }

  ASSERT_EQ(fast.models.size(), ref.models.size()) << label;
  for (std::size_t m = 0; m < ref.models.size(); ++m) {
    const std::string ml = label + " model slice " + std::to_string(m);
    EXPECT_EQ(fast.models[m].model, ref.models[m].model) << ml;
    EXPECT_EQ(fast.models[m].completed, ref.models[m].completed) << ml;
    EXPECT_EQ(fast.models[m].mean_latency_ms, ref.models[m].mean_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].p95_latency_ms, ref.models[m].p95_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].p99_latency_ms, ref.models[m].p99_latency_ms)
        << ml;
    EXPECT_EQ(fast.models[m].sla_violation_rate,
              ref.models[m].sla_violation_rate)
        << ml;
    EXPECT_EQ(fast.models[m].swaps, ref.models[m].swaps) << ml;
  }
}

void ExpectIdenticalFleetStats(const fleet::FleetStats& fast,
                               const fleet::FleetStats& ref,
                               const std::string& label) {
  EXPECT_EQ(fast.num_servers, ref.num_servers) << label;
  EXPECT_EQ(fast.routed_queries, ref.routed_queries) << label;
  EXPECT_EQ(fast.routed_per_server, ref.routed_per_server) << label;
  ExpectIdenticalServerStats(fast.aggregate, ref.aggregate,
                             label + " aggregate");
  ASSERT_EQ(fast.per_server.size(), ref.per_server.size()) << label;
  for (std::size_t s = 0; s < ref.per_server.size(); ++s) {
    ExpectIdenticalServerStats(fast.per_server[s], ref.per_server[s],
                               label + " server " + std::to_string(s));
  }
}

TEST(FleetStats, ZeroCopyAggregateMatchesReferenceEverywhere) {
  // Multi-server, mixed-model traffic: every policy x seed x jobs cell
  // must agree with the merged-vector reference on every field.
  for (const auto policy :
       {fleet::RouterPolicy::kHash, fleet::RouterPolicy::kLeastLoaded,
        fleet::RouterPolicy::kPowerOfTwo}) {
    for (const std::uint64_t seed : {7ull, 1234ull}) {
      const FleetTestbed tb(MixedFleet(5, policy, seed));
      const auto trace = tb.GenerateFleetTrace(/*rate_qps=*/2500.0,
                                               /*num_queries=*/4000, seed);
      const auto result = tb.Run(trace, /*jobs=*/2);
      const auto ref = oracle::MergedCopyStats(result, tb.sla_target());
      for (const int jobs : {1, 3}) {
        const auto fast =
            result.Stats(tb.sla_target(), /*warmup_fraction=*/0.1, jobs);
        ExpectIdenticalFleetStats(
            fast, ref,
            std::string(ToString(policy)) + " seed " + std::to_string(seed) +
                " jobs " + std::to_string(jobs));
      }
    }
  }
}

TEST(FleetStats, AgreesAtZeroWarmupAndOnEmptyResults) {
  // warmup 0 exercises the empty cut; an empty FleetResult must
  // come back zeroed from both paths instead of dividing by the span.
  const FleetTestbed tb(MixedFleet(3, fleet::RouterPolicy::kHash, 3));
  const auto trace = tb.GenerateFleetTrace(1500.0, 2000, /*seed=*/3);
  const auto result = tb.Run(trace, /*jobs=*/2);
  ExpectIdenticalFleetStats(
      result.Stats(tb.sla_target(), /*warmup_fraction=*/0.0, 2),
      oracle::MergedCopyStats(result, tb.sla_target(),
                              /*warmup_fraction=*/0.0),
      "warmup 0");

  fleet::FleetResult empty;
  const auto fast = empty.Stats(tb.sla_target(), 0.1, 2);
  const auto ref = oracle::MergedCopyStats(empty, tb.sla_target(), 0.1);
  EXPECT_EQ(fast.routed_queries, 0u);
  ExpectIdenticalFleetStats(fast, ref, "empty result");
}

TEST(FleetStats, AgreesOnUnsortedTracesAndForeignIds) {
  // The aggregate reads neither the source trace's order nor its ids: an
  // arrival inversion (every server's records out of arrival order) or
  // ids outside the trace positions must still match the reference bit
  // for bit.
  const FleetTestbed tb(MixedFleet(4, fleet::RouterPolicy::kLeastLoaded, 11));
  const auto sorted = tb.GenerateFleetTrace(/*rate_qps=*/2000.0,
                                            /*num_queries=*/3000, /*seed=*/11);

  auto reversed = sorted.queries();
  std::reverse(reversed.begin(), reversed.end());
  const auto r1 = tb.Run(workload::QueryTrace(std::move(reversed)), /*jobs=*/2);
  ExpectIdenticalFleetStats(r1.Stats(tb.sla_target(), 0.1, 3),
                            oracle::MergedCopyStats(r1, tb.sla_target()),
                            "reversed trace");

  auto sparse = sorted.queries();
  for (auto& q : sparse) q.id = q.id * 2 + 1;  // ids outside the positions
  const auto r2 = tb.Run(workload::QueryTrace(std::move(sparse)), /*jobs=*/2);
  ExpectIdenticalFleetStats(r2.Stats(tb.sla_target(), 0.1, 3),
                            oracle::MergedCopyStats(r2, tb.sla_target()),
                            "sparse ids");
}

TEST(FleetStats, WarmupCutInsideCrossServerTiesHandsThemOutServerMajor) {
  // 40 records on 3 servers, so the 10% cut takes 4 in merged order
  // (arrival, then server, then stable position).  One record arrives
  // before T = 5 ms (on server 2); four arrive exactly at T: one each on
  // servers 0 and 1, two on server 2.  The other three cut records are
  // therefore server 0's tie, server 1's tie and the first of server 2's
  // pair in its stored order.  Server 2's records are stored out of
  // arrival order.  Every record has its own latency, worker and a model
  // that differs by server, so cutting the wrong tied record moves means,
  // percentiles, worker busy times and model slices.
  const SimTime ms = MsToTicks(1.0);
  const SimTime t = 5 * ms;
  fleet::FleetResult result;
  int latency_us = 100;
  const auto add = [&](std::size_t server, SimTime arrival, int worker,
                       int model) {
    if (result.per_server.size() <= server) {
      result.per_server.resize(server + 1);
    }
    auto& records = result.per_server[server].records;
    sim::QueryRecord r;
    r.id = records.size();
    r.model = model;
    r.arrival = arrival;
    r.dispatched = arrival;
    r.started = arrival + UsToTicks(latency_us / 4);
    r.finished = arrival + UsToTicks(latency_us);
    latency_us += 137;
    r.worker = worker;
    r.worker_gpcs = 1 + worker % 3;
    records.push_back(r);
  };
  // Servers 0 and 1: one record at T, then later arrivals.
  add(0, t, 1, 0);
  for (int i = 0; i < 13; ++i) add(0, t + (i + 1) * ms, i % 3, i % 2);
  add(1, t, 1, 1);
  for (int i = 0; i < 12; ++i) add(1, t + (i + 1) * ms, i % 2, i % 2);
  // Server 2: stored latest-first; a tied pair and one early arrival.
  for (int i = 10; i >= 1; --i) add(2, t + i * ms, i % 2, 0);
  add(2, t, 1, 0);
  add(2, t, 0, 0);
  add(2, 3 * ms, 0, 0);
  result.global_models = {{0, 1}, {0, 2}, {1}};
  result.worker_base = {0, 3, 5};

  const SimTime sla = MsToTicks(1.5);
  const auto ref = oracle::MergedCopyStats(result, sla);
  ASSERT_EQ(ref.routed_queries, 40u);
  ASSERT_EQ(ref.aggregate.completed, 36u);
  for (const int jobs : {1, 3}) {
    ExpectIdenticalFleetStats(result.Stats(sla, 0.1, jobs), ref,
                              "ties jobs " + std::to_string(jobs));
  }
}

TEST(FleetStats, CasualtiesAreCountedButExcludedFromThePercentilePool) {
  // A failed attempt's `finished` is the failure instant and a shed
  // query's is its drop time -- sampling either would poison the
  // percentiles.  Hand-build a one-server result where the casualty
  // "latency" dwarfs every genuine completion: the latency figures must
  // not move, while failed/shed are tallied separately.
  fleet::FleetResult result;
  sim::SimResult sr;
  const SimTime ms = MsToTicks(1.0);
  for (int i = 0; i < 12; ++i) {
    sim::QueryRecord r;
    r.id = static_cast<std::uint64_t>(i);
    r.arrival = static_cast<SimTime>(i) * 10 * ms;
    r.dispatched = r.arrival;
    r.started = r.arrival + ms;
    r.worker = 0;
    r.worker_gpcs = 7;
    if (i == 5) {
      r.failed = true;
      r.finished = r.arrival + 100'000 * ms;  // absurd sentinel latency
    } else if (i == 9) {
      r.shed = true;
      r.finished = r.arrival + 50'000 * ms;
    } else {
      r.finished = r.started + (2 + i % 4) * ms;
    }
    sr.records.push_back(r);
  }
  result.per_server.push_back(std::move(sr));
  result.global_models = {{0}};
  result.worker_base = {0};

  for (const int jobs : {1, 2}) {
    const auto stats =
        result.Stats(/*sla_target=*/20 * ms, /*warmup_fraction=*/0.0, jobs);
    const auto& agg = stats.aggregate;
    EXPECT_EQ(agg.completed, 10u);
    EXPECT_EQ(agg.failed, 1u);
    EXPECT_EQ(agg.shed, 1u);
    // Pool = completions only: the worst genuine latency is 6 ms
    // (1 ms queue + 5 ms service), nowhere near the casualty sentinels.
    EXPECT_EQ(agg.max_latency_ms, 6.0);
    EXPECT_LE(agg.p99_latency_ms, 6.0);
    EXPECT_EQ(agg.sla_violation_rate, 0.0);
    ExpectIdenticalFleetStats(
        stats,
        oracle::MergedCopyStats(result, 20 * ms, /*warmup_fraction=*/0.0),
        "hand-built casualties jobs " + std::to_string(jobs));
    ASSERT_EQ(stats.per_server.size(), 1u);
    EXPECT_EQ(stats.per_server[0].failed, 1u);
    EXPECT_EQ(stats.per_server[0].shed, 1u);
  }
}

TEST(FleetStats, FaultedRunsAgreeWithTheReferenceEverywhere) {
  // End-to-end: a sole-replica crash produces real failed/shed records
  // spread across servers; the zero-copy aggregate must still match the
  // merged-vector reference field for field at every jobs count.
  FleetTestbedConfig fc = MixedFleet(3, fleet::RouterPolicy::kHash, 5);
  fc.replicas = 1;
  const FleetTestbed tb(fc);
  const auto trace = tb.GenerateFleetTrace(1500.0, 3000, /*seed=*/5);
  fleet::FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 3,
                         fleet::FaultKind::kServerCrash, /*server=*/1});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  ASSERT_GT(result.fault.failed + result.fault.shed, 0u);
  const auto ref = oracle::MergedCopyStats(result, tb.sla_target());
  EXPECT_GT(ref.aggregate.failed + ref.aggregate.shed, 0u);
  for (const int jobs : {1, 3}) {
    ExpectIdenticalFleetStats(result.Stats(tb.sla_target(), 0.1, jobs), ref,
                              "faulted jobs " + std::to_string(jobs));
  }
}

TEST(FleetStats, UnplacedModelRoutingErrorNamesTheModel) {
  // Regression: a fleet trace carrying a model id no server hosts must
  // surface as a logic_error naming the model, not UB in the replica
  // lookup.  Build the stray trace by hand -- the testbed's own
  // generator can only emit placed models.
  const FleetTestbed tb(MixedFleet(3, fleet::RouterPolicy::kPowerOfTwo, 9));
  workload::Query stray;
  stray.id = 0;
  stray.model_id = 42;  // zoo has 3 models
  const workload::QueryTrace trace(std::vector<workload::Query>{stray});
  try {
    tb.Run(trace, /*jobs=*/1);
    FAIL() << "routing an unplaced model did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("model 42"), std::string::npos)
        << "message: " << e.what();
  }
}

}  // namespace
}  // namespace pe::core
