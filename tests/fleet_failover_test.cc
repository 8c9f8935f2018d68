// Fault-tolerant fleet driver acceptance tests:
//  * an EMPTY fault plan is the identity -- record-by-record bit-identical
//    to the fault-free Cluster::Simulate path;
//  * crashing the sole replica of a model sheds (never silently loses)
//    the affected queries, while a replicated crash reroutes them and
//    completes everything;
//  * fault runs are bit-identical at --jobs 1, 2 and hardware
//    concurrency, and across repeated runs with the same seed;
//  * retried attempts map back, through the result's global ids, to the
//    trace query they retry;
//  * the `--faults` grammar (ParseFaultRef / ResolveFaultPlan) resolves
//    deterministically and rejects unknown presets and keys, and numbers
//    it cannot take as given (non-integral or out-of-range counts and
//    retries, durations or retry backoffs past SimTime's range).
#include "fleet/failover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fleet_runner.h"
#include "fleet/fault.h"
#include "workload/trace.h"

namespace pe::fleet {
namespace {

core::FleetTestbedConfig ShardedFleet(int servers, int replicas,
                                      std::uint64_t seed = 0x5EED) {
  core::FleetTestbedConfig fc;
  fc.mix.models.push_back({"resnet", 0.6, 6.0, 0.9});
  fc.mix.models.push_back({"mobilenet", 0.4, 4.0, 0.8});
  fc.mix.swap_cost_us = 200.0;
  fc.num_servers = servers;
  fc.placement = PlacementKind::kSharded;
  fc.replicas = replicas;
  fc.seed = seed;
  return fc;
}

bool SameRecord(const sim::QueryRecord& x, const sim::QueryRecord& y) {
  return x.id == y.id && x.batch == y.batch && x.model == y.model &&
         x.arrival == y.arrival && x.dispatched == y.dispatched &&
         x.started == y.started && x.finished == y.finished &&
         x.worker == y.worker && x.worker_gpcs == y.worker_gpcs &&
         x.model_swap == y.model_swap && x.failed == y.failed &&
         x.shed == y.shed && x.retries == y.retries;
}

void ExpectSameResult(const FleetResult& a, const FleetResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.per_server.size(), b.per_server.size()) << label;
  ASSERT_EQ(a.global_ids, b.global_ids) << label;
  ASSERT_EQ(a.id_offsets, b.id_offsets) << label;
  for (std::size_t s = 0; s < a.per_server.size(); ++s) {
    const auto& ra = a.per_server[s].records;
    const auto& rb = b.per_server[s].records;
    ASSERT_EQ(ra.size(), rb.size()) << label << " server " << s;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_TRUE(SameRecord(ra[i], rb[i]))
          << label << " server " << s << " record " << i;
    }
  }
  EXPECT_EQ(a.fault.completed, b.fault.completed) << label;
  EXPECT_EQ(a.fault.failed, b.fault.failed) << label;
  EXPECT_EQ(a.fault.shed, b.fault.shed) << label;
  EXPECT_EQ(a.fault.retried, b.fault.retried) << label;
  EXPECT_EQ(a.fault.rerouted, b.fault.rerouted) << label;
  EXPECT_EQ(a.fault.repartitions, b.fault.repartitions) << label;
  EXPECT_EQ(a.fault.makespan, b.fault.makespan) << label;
}

TEST(FaultRef, ParsesNameAndOverrides) {
  const auto bare = ParseFaultRef("serverloss");
  EXPECT_EQ(bare.name, "serverloss");
  EXPECT_TRUE(bare.overrides.empty());

  const auto full = ParseFaultRef("cascade:count=3,down-ms=500");
  EXPECT_EQ(full.name, "cascade");
  ASSERT_EQ(full.overrides.size(), 2u);
  EXPECT_EQ(full.overrides[0].first, "count");
  EXPECT_EQ(full.overrides[0].second, "3");
  EXPECT_EQ(full.overrides[1].first, "down-ms");
  EXPECT_EQ(full.overrides[1].second, "500");

  EXPECT_THROW(ParseFaultRef(""), std::invalid_argument);
  EXPECT_THROW(ParseFaultRef("flaky:count"), std::invalid_argument);
}

TEST(FaultPlanResolve, PresetsAreDeterministicAndValidated) {
  const auto placement = ShardedPlacement(6, 2, 3);
  const SimTime span = MsToTicks(10'000.0);

  EXPECT_TRUE(ResolveFaultPlan({"none", {}}, placement, span, 1).empty());
  EXPECT_THROW(ResolveFaultPlan({"meteor", {}}, placement, span, 1),
               std::invalid_argument);
  EXPECT_THROW(
      ResolveFaultPlan({"serverloss", {{"bogus", "1"}}}, placement, span, 1),
      std::invalid_argument);

  // Same (spec, seed) -> same schedule; schedules are sorted by time.
  for (const auto& name : FaultPresetNames()) {
    const auto a = ResolveFaultPlan({name, {}}, placement, span, 42);
    const auto b = ResolveFaultPlan({name, {}}, placement, span, 42);
    ASSERT_EQ(a.events.size(), b.events.size()) << name;
    EXPECT_FALSE(a.empty()) << name;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].time, b.events[i].time) << name;
      EXPECT_EQ(a.events[i].kind, b.events[i].kind) << name;
      EXPECT_EQ(a.events[i].server, b.events[i].server) << name;
      EXPECT_EQ(a.events[i].worker, b.events[i].worker) << name;
      EXPECT_EQ(a.events[i].factor, b.events[i].factor) << name;
      if (i > 0) {
        EXPECT_GE(a.events[i].time, a.events[i - 1].time) << name;
      }
    }
  }

  // Policy-knob overrides land on the plan, and count clamps to the fleet.
  const auto tuned = ResolveFaultPlan(
      {"serverloss",
       {{"count", "99"}, {"retries", "5"}, {"deadline-ms", "800"},
        {"repartition", "0"}}},
      placement, span, 7);
  EXPECT_EQ(tuned.max_retries, 5);
  EXPECT_EQ(tuned.deadline, MsToTicks(800.0));
  EXPECT_FALSE(tuned.repartition);
  EXPECT_EQ(tuned.events.size(), 6u);  // one crash per server, clamped
}

// The message of the std::invalid_argument `resolve` throws; empty when
// it throws nothing.
template <typename Fn>
std::string InvalidArgument(Fn resolve) {
  try {
    resolve();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FaultPlanResolve, RejectsNumbersItCannotTakeAsGiven) {
  const auto placement = ShardedPlacement(6, 2, 3);
  const SimTime span = MsToTicks(10'000.0);
  const auto resolve = [&](const std::string& ref) {
    return InvalidArgument(
        [&] { ResolveFaultPlan(ParseFaultRef(ref), placement, span, 1); });
  };
  // Each rejection names the offending key: {spec, key}.
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"serverloss:retries=1e300", "retries"},
      {"serverloss:retries=2.5", "retries"},
      {"serverloss:count=1e300", "count"},
      {"serverloss:count=1.5", "count"},
      {"serverloss:backoff-ms=1e300", "backoff-ms"},
      {"serverloss:deadline-ms=1e300", "deadline-ms"},
      {"serverloss:at-ms=1e300", "at-ms"},
      {"cascade:down-ms=1e300", "down-ms"},
      {"cascade:stagger-ms=1e300", "stagger-ms"},
      {"cascade:downtime-ms=1e300", "downtime-ms"},
      {"brownout:factor=inf", "factor"},
      {"serverloss:retries=nan", "retries"},
      // The 39th doubling of the default 50 ms backoff overflows.
      {"serverloss:retries=39", "retries"},
      {"serverloss:retries=64,backoff-ms=0.000001", "retries"},
      {"serverloss:retries=2,backoff-ms=5e12", "backoff-ms"},
      // Each duration fits alone; their sum does not.
      {"cascade:at-ms=9e12,down-ms=9e12", "down-ms"},
  };
  for (const auto& [ref, key] : rejected) {
    const std::string what = resolve(ref);
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos)
        << ref << " -> \"" << what << "\"";
  }
  // The limits are exact: the last backoff that fits is accepted.
  EXPECT_EQ(resolve("serverloss:retries=38"), "");
  EXPECT_EQ(resolve("serverloss:retries=63,backoff-ms=0.000001"), "");
  EXPECT_EQ(resolve("serverloss:retries=1000,backoff-ms=0"), "");
  EXPECT_EQ(resolve("serverloss:count=2147483647"), "");  // still clamps
  // The benchmark's chaos spec is untouched.
  EXPECT_EQ(resolve("cascade:count=10,deadline-ms=250"), "");

  // Validate guards hand-built plans too, at the same limit.
  FaultPlan plan;
  plan.max_retries = 38;
  EXPECT_NO_THROW(plan.Validate(placement));
  EXPECT_EQ(plan.RetryDelay(38), MsToTicks(50.0) << 37);
  plan.max_retries = 39;
  EXPECT_THROW(plan.Validate(placement), std::invalid_argument);
  plan.retry_backoff = 1;
  plan.max_retries = 63;
  EXPECT_NO_THROW(plan.Validate(placement));
  EXPECT_EQ(plan.RetryDelay(63), SimTime{1} << 62);
  plan.max_retries = 64;
  EXPECT_THROW(plan.Validate(placement), std::invalid_argument);
  plan.retry_backoff = std::numeric_limits<SimTime>::max();
  plan.max_retries = 1;
  EXPECT_NO_THROW(plan.Validate(placement));
  plan.max_retries = 2;
  EXPECT_THROW(plan.Validate(placement), std::invalid_argument);
}

TEST(FleetFailover, EmptyPlanIsBitIdenticalToTheBatchPath) {
  const core::FleetTestbed tb(ShardedFleet(4, 2));
  const auto trace = tb.GenerateFleetTrace(600.0, 4000, /*seed=*/7);
  const auto base = tb.Run(trace, /*jobs=*/2);
  const auto faulted = tb.RunWithFaults(trace, FaultPlan{}, /*jobs=*/2);
  EXPECT_FALSE(faulted.fault.faulted);
  ExpectSameResult(base, faulted, "empty plan");
}

TEST(FleetFailover, SoleReplicaCrashShedsInsteadOfLosingQueries) {
  // 2 servers, 2 models, replicas=1: each server is the sole host of one
  // model (no empty server for the backfill rule to pad), so crashing
  // server 0 leaves its model with NO healthy replica -- the affected
  // queries must shed or fail, loudly accounted, never silently dropped.
  const core::FleetTestbed tb(ShardedFleet(2, 1));
  const auto trace = tb.GenerateFleetTrace(300.0, 3000, /*seed=*/11);
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 4,
                         FaultKind::kServerCrash, /*server=*/0});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  EXPECT_TRUE(f.faulted);
  EXPECT_EQ(f.injected, trace.size());
  EXPECT_EQ(f.completed + f.failed + f.shed, f.injected);
  EXPECT_GT(f.failed + f.shed, 0u);
  EXPECT_LT(f.completed, f.injected);
  // Permanent crash at span/4: server 0's availability is about 25%.
  ASSERT_EQ(f.availability.size(), 2u);
  EXPECT_LT(f.availability[0], 0.5);
  EXPECT_EQ(f.availability[1], 1.0);
}

TEST(FleetFailover, ReplicatedCrashReroutesEverythingWithoutLoss) {
  // replicas=3: two healthy replicas survive any single crash, so every
  // query must complete -- casualties retry, down-window arrivals divert.
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 6000, /*seed=*/13);
  FaultPlan plan;
  plan.name = "manual-crash";
  plan.events.push_back({trace.queries().back().arrival / 4,
                         FaultKind::kServerCrash, /*server=*/0});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  EXPECT_EQ(f.completed, f.injected);
  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(f.shed, 0u);
  EXPECT_GT(f.rerouted, 0u);
  EXPECT_LT(f.availability[0], 1.0);
  // The crashed engine must end with no un-terminal record.
  for (const auto& sr : result.per_server) {
    for (const auto& r : sr.records) {
      EXPECT_TRUE(r.finished > 0 || r.failed || r.shed);
    }
  }
}

TEST(FleetFailover, SlowdownWindowShowsUpAsIncidentLatency) {
  const core::FleetTestbed tb(ShardedFleet(4, 2));
  const auto trace = tb.GenerateFleetTrace(600.0, 4000, /*seed=*/17);
  const SimTime span = trace.queries().back().arrival;
  FaultPlan plan;
  plan.name = "manual-brownout";
  plan.events.push_back(
      {span / 4, FaultKind::kSlowdownBegin, /*server=*/1, -1, 4.0});
  plan.events.push_back({(span * 3) / 4, FaultKind::kSlowdownEnd, 1});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/2);
  const auto& f = result.fault;
  // A slowdown degrades, it does not lose: everything still completes and
  // the incident-window tail is measured.
  EXPECT_EQ(f.completed, f.injected);
  EXPECT_GT(f.incident_completions, 0u);
  EXPECT_GT(f.p99_incident_ms, 0.0);
  // No crash anywhere: availability stays 1.0 (slowdowns are not downtime).
  for (const double a : f.availability) EXPECT_EQ(a, 1.0);
}

TEST(FleetFailover, BitIdenticalAcrossJobsAndRepeatedRuns) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 5000, /*seed=*/19);
  const auto plan = tb.ResolveFaults(ParseFaultRef("cascade:down-ms=400"),
                                     trace);
  const auto base = tb.RunWithFaults(trace, plan, /*jobs=*/1);
  for (const int jobs : {2, hw}) {
    ExpectSameResult(base, tb.RunWithFaults(trace, plan, jobs),
                     "jobs=" + std::to_string(jobs));
  }
  // Re-resolving the same spec yields the same plan, hence the same run.
  const auto replan = tb.ResolveFaults(ParseFaultRef("cascade:down-ms=400"),
                                       trace);
  ExpectSameResult(base, tb.RunWithFaults(trace, replan, /*jobs=*/2),
                   "re-resolved plan");
}

TEST(FleetFailover, RetriedAttemptsMapToTheirTraceQueries) {
  // A retry is a fresh local id past the server's split span; the result's
  // global ids must still map it to the trace query it retries.
  const core::FleetTestbed tb(ShardedFleet(6, 3));
  const auto trace = tb.GenerateFleetTrace(900.0, 6000, /*seed=*/13);
  const SimTime span = trace.queries().back().arrival;
  FaultPlan plan;
  plan.name = "manual-crashes";
  plan.events.push_back({span / 4, FaultKind::kServerCrash, /*server=*/0});
  plan.events.push_back({span / 2, FaultKind::kServerCrash, /*server=*/3});
  plan.events.push_back({(span * 3) / 4, FaultKind::kServerRecover, 0});
  const auto result = tb.RunWithFaults(trace, plan, /*jobs=*/1);
  ASSERT_GT(result.fault.retried, 0u);

  std::size_t records = 0;
  std::size_t retried_records = 0;
  for (const auto& sr : result.per_server) records += sr.records.size();
  ASSERT_EQ(result.id_offsets.size(), result.per_server.size() + 1);
  EXPECT_EQ(result.id_offsets.back(), records);
  EXPECT_EQ(result.global_ids.size(), records);
  for (std::size_t s = 0; s < result.per_server.size(); ++s) {
    const auto gids = result.GlobalIds(static_cast<int>(s));
    const auto& models = result.global_models[s];
    for (const sim::QueryRecord& r : result.per_server[s].records) {
      ASSERT_LT(r.id, gids.size()) << "server " << s;
      const std::uint64_t gid = gids[r.id];
      ASSERT_LT(gid, trace.size()) << "server " << s << " record " << r.id;
      const workload::Query& q = trace.queries()[gid];
      EXPECT_EQ(r.batch, q.batch) << "server " << s << " record " << r.id;
      ASSERT_LT(static_cast<std::size_t>(r.model), models.size());
      EXPECT_EQ(models[static_cast<std::size_t>(r.model)], q.model_id)
          << "server " << s << " record " << r.id;
      EXPECT_GE(r.arrival, q.arrival);
      if (r.arrival > q.arrival) ++retried_records;
    }
  }
  // Every retried attempt left a record of its own.
  EXPECT_EQ(retried_records, result.fault.retried);

  const auto parallel = tb.RunWithFaults(trace, plan, /*jobs=*/3);
  EXPECT_EQ(parallel.global_ids, result.global_ids);
  EXPECT_EQ(parallel.id_offsets, result.id_offsets);
}

TEST(FleetFailover, HealthViewWindowsMatchTheSchedule) {
  FaultPlan plan;
  plan.events.push_back({100, FaultKind::kServerCrash, 0});
  plan.events.push_back({200, FaultKind::kServerRecover, 0});
  plan.events.push_back({400, FaultKind::kSlowdownBegin, 1, -1, 2.0});
  plan.events.push_back({500, FaultKind::kSlowdownEnd, 1});
  const HealthView hv(plan, /*num_servers=*/2);
  EXPECT_TRUE(hv.IsUp(0, 99));
  EXPECT_FALSE(hv.IsUp(0, 100));   // down window is [crash, recover)
  EXPECT_FALSE(hv.IsUp(0, 199));
  EXPECT_TRUE(hv.IsUp(0, 200));
  EXPECT_TRUE(hv.IsUp(1, 450));    // slowdown is degraded, not down
  EXPECT_EQ(hv.DownTicks(0, /*horizon=*/1000), 100);
  EXPECT_EQ(hv.DownTicks(1, /*horizon=*/1000), 0);
  EXPECT_TRUE(hv.InIncident(150));
  EXPECT_TRUE(hv.InIncident(450));
  EXPECT_FALSE(hv.InIncident(300));
  EXPECT_FALSE(hv.InIncident(990));
}

}  // namespace
}  // namespace pe::fleet
