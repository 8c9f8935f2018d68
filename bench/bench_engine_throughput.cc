// Engine-throughput trajectory bench: simulated queries per wall-clock
// second the discrete-event engine sustains, at W in {8, 64, 256}
// partitions x {single-model, 4-model mix} x {FIFS, ELSA}.
//
// Self-contained timing (std::chrono, no google-benchmark dependency).
// Every configuration runs twice: once on the production engine (compiled
// profile lookups, incremental scheduler view, sorted arrival cursor,
// bucketed calendar) and once on the naive oracle in tests/oracle/ (one
// binary heap, fresh snapshot vectors, uncompiled lookups, full-scan
// ELSA), so the report carries the speedup alongside the absolute
// throughput -- `engine_qps` is the production engine's
// simulated-queries-per-second, the perf trajectory number CI tracks, and
// `speedup` is engine_qps / reference_qps on identical record streams
// (checked by hash here, record-by-record in engine_golden_test).
//
// Headline: `speedup_256_mix4_elsa`, the 256-partition mixed-trace ELSA
// configuration.  Run in Release without PE_BENCH_SMOKE for meaningful
// numbers.
//
// A per-decision leg follows the grid: `elsa_ns_per_decision`, ELSA's
// mean wall-clock nanoseconds per arrival decision at W in {8, 32, 141,
// 256} partitions, timed call by call (one steady_clock pair per call, as
// the repository benchmark's sched.ns_per_decision is) while a live
// InferenceServer drives it on the 4-model mix -- so the decision reads
// the engine's own view and free-at index, not a snapshot vector.
//
// A fleet-scaling leg follows the single-server grid: the same 4-model
// mix served by a sharded router-fronted fleet (core::FleetTestbed, 100
// servers / 1M queries in full mode), with every pipeline stage timed
// fast vs reference through one MeasureStage helper:
//   router_qps  batched (and, for hash, thread-chunked) RouteAll vs the
//               per-query virtual Route loop, per policy
//               (hash / least / po2c),
//   split_qps   two-pass arena SplitTrace vs the per-query lower_bound
//               split oracle (oracle::SplitPerQuery),
//   sim_qps     the bucketed-calendar production engine replaying the
//               split at jobs=1 vs the naive oracle engine replaying the
//               identical split (oracle::ReplayFleet) --
//               `sim_speedup_jobs1` is the CI-gated event-core
//               trajectory number,
//   stats_sec   FleetResult::Stats (per-server folds past the fleet's
//               warm-up cut -- merged order is arrival, then server,
//               then position -- merged and finished once; means are
//               exact tick sums converted to ms once) vs the merged-copy
//               oracle (oracle::MergedCopyStats),
//   fleet_qps   the end-to-end pipeline (route + split + simulate +
//               stats) at --jobs 1 and hardware concurrency, against the
//               all-reference pipeline (fleet_reference_qps: oracle split
//               and stats) sharing the same simulate stage --
//               `fleet_speedup` is the CI-gated fleet trajectory number.
// Every fast stage is cross-checked against its reference output
// (assignment-for-assignment routing, record-for-record split,
// field-for-field stats, jobs-1-identical records); any divergence fails
// the bench.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/fleet_runner.h"
#include "oracle/elsa.h"
#include "oracle/engine.h"
#include "oracle/fleet.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "sim/server.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace {

using namespace pe;  // NOLINT: bench-local convenience

const std::vector<std::string>& MixModels() {
  static const std::vector<std::string> kModels = {"resnet", "mobilenet",
                                                   "bert", "shufflenet"};
  return kModels;
}

// Heterogeneous layout of W partitions cycling the profiled MIG sizes.
std::vector<int> MakeLayout(int workers) {
  const int cycle[] = {1, 2, 3, 7};
  std::vector<int> layout;
  layout.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) layout.push_back(cycle[i % 4]);
  return layout;
}

// Offered load tuned to keep the server busy without unbounded queues:
// a fraction of the layout's aggregate service rate at the median batch.
double RateFor(const profile::ModelRepertoire& rep,
               const std::vector<int>& layout) {
  double capacity = 0.0;
  for (int gpcs : layout) {
    double per_model = 0.0;
    for (int m = 0; m < rep.size(); ++m) {
      per_model += rep.profile(m).ThroughputQps(gpcs, 8);
    }
    capacity += per_model / rep.size();
  }
  return 0.75 * capacity;
}

// Constant-rate scenario specs drain bit-identically to the adapter
// sources (ArrivalTraceSource / MixTraceSource) on the same seed, so the
// trajectory numbers stay comparable across bench revisions.
workload::QueryTrace MakeTrace(bool mixed, double rate_qps, std::size_t n,
                               std::uint64_t seed) {
  workload::ScenarioSpec spec;
  spec.rate.base_qps = rate_qps;
  spec.max_batch = 32;
  const double medians[] = {6.0, 4.0, 9.0, 12.0};
  const double sigmas[] = {0.9, 0.8, 0.7, 0.9};
  const int components = mixed ? 4 : 1;
  for (int m = 0; m < components; ++m) {
    workload::ComponentSpec c;
    c.model_id = m;
    c.weight = 1.0;
    c.median = medians[m];
    c.sigma = sigmas[m];
    spec.components.push_back(c);
  }
  return workload::GenerateScenarioTrace(spec, n, seed);
}

// FNV-1a over the fields that define a record stream; equal hashes across
// the two engines back the speedup's apples-to-apples claim.
std::uint64_t HashRecords(const std::vector<sim::QueryRecord>& records) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& r : records) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.batch));
    mix(static_cast<std::uint64_t>(r.model));
    mix(static_cast<std::uint64_t>(r.started));
    mix(static_cast<std::uint64_t>(r.finished));
    mix(static_cast<std::uint64_t>(r.worker));
    mix(static_cast<std::uint64_t>(r.model_swap ? 1 : 0));
  }
  return h;
}

struct Measurement {
  double qps = 0.0;
  std::uint64_t hash = 0;
};

// Forwards to `inner`, accumulating the wall-clock time of every arrival
// decision (orphan re-placements included).
class TimedScheduler final : public sched::Scheduler {
 public:
  explicit TimedScheduler(sched::Scheduler& inner) : inner_(inner) {}

  using Scheduler::OnQueryArrival;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    const auto t0 = std::chrono::steady_clock::now();
    const int choice = inner_.OnQueryArrival(query, workers);
    const auto t1 = std::chrono::steady_clock::now();
    ns_ += std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++decisions_;
    return choice;
  }
  bool UsesCentralQueue() const override { return inner_.UsesCentralQueue(); }
  std::string name() const override { return inner_.name(); }

  double ns_per_decision() const {
    return decisions_ > 0 ? ns_ / static_cast<double>(decisions_) : 0.0;
  }
  std::uint64_t decisions() const { return decisions_; }

 private:
  sched::Scheduler& inner_;
  double ns_ = 0.0;
  std::uint64_t decisions_ = 0;
};

// Best-of-`reps` wall-clock of a full Run (Reset + inject + drain) on
// either engine.
template <typename Server>
Measurement Measure(Server& server, const workload::QueryTrace& trace,
                    int reps) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = server.Run(trace);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    const double qps =
        sec > 0.0 ? static_cast<double>(trace.size()) / sec : 0.0;
    if (qps > best.qps) best.qps = qps;
    best.hash = HashRecords(result.records);
  }
  return best;
}

// Best-of-`reps` wall-clock seconds of fn().
template <typename Fn>
double TimeSec(Fn&& fn, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct StageResult {
  double fast_sec = 0.0;
  double reference_sec = 0.0;
  double fast_qps = 0.0;
  double reference_qps = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// One fleet pipeline stage, fast vs its retained reference: best-of-reps
// both sides, identity cross-check, one table row.  Every stage (route,
// split, sim, stats) funnels through here so a new stage is one call.
template <typename FastFn, typename RefFn, typename SameFn>
StageResult MeasureStage(Table& table, const std::string& stage,
                         const std::string& variant, double n, int reps,
                         FastFn&& fast_fn, RefFn&& ref_fn, SameFn&& same) {
  StageResult r;
  r.fast_sec = TimeSec(fast_fn, reps);
  r.reference_sec = TimeSec(ref_fn, reps);
  r.fast_qps = r.fast_sec > 0.0 ? n / r.fast_sec : 0.0;
  r.reference_qps = r.reference_sec > 0.0 ? n / r.reference_sec : 0.0;
  r.speedup = r.reference_qps > 0.0 ? r.fast_qps / r.reference_qps : 0.0;
  r.identical = same();
  table.AddRow({stage, variant, Table::Num(r.fast_qps, 0),
                Table::Num(r.reference_qps, 0), Table::Num(r.speedup, 2),
                r.identical ? "yes" : "NO"});
  return r;
}

// Record-for-record equality of two trace splits (arena layout included).
bool SameSplit(const fleet::TraceSplit& a, const fleet::TraceSplit& b) {
  if (a.offsets != b.offsets || a.global_ids != b.global_ids ||
      a.arena.size() != b.arena.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.arena.size(); ++i) {
    const auto& x = a.arena[i];
    const auto& y = b.arena[i];
    if (x.id != y.id || x.arrival != y.arrival || x.batch != y.batch ||
        x.model_id != y.model_id) {
      return false;
    }
  }
  return true;
}

// Bit-exact field equality (doubles compared with ==, not a tolerance):
// the fleet aggregate must reproduce the reference arithmetic.
bool SameServerStats(const sim::ServerStats& a, const sim::ServerStats& b) {
  if (a.completed != b.completed || a.mean_latency_ms != b.mean_latency_ms ||
      a.p50_latency_ms != b.p50_latency_ms ||
      a.p95_latency_ms != b.p95_latency_ms ||
      a.p99_latency_ms != b.p99_latency_ms ||
      a.max_latency_ms != b.max_latency_ms ||
      a.mean_queue_delay_ms != b.mean_queue_delay_ms ||
      a.sla_violation_rate != b.sla_violation_rate ||
      a.achieved_qps != b.achieved_qps ||
      a.mean_worker_utilization != b.mean_worker_utilization ||
      a.reconfig_stalled != b.reconfig_stalled ||
      a.model_swaps != b.model_swaps || a.workers.size() != b.workers.size() ||
      a.models.size() != b.models.size()) {
    return false;
  }
  for (std::size_t w = 0; w < a.workers.size(); ++w) {
    const auto& x = a.workers[w];
    const auto& y = b.workers[w];
    if (x.index != y.index || x.gpcs != y.gpcs ||
        x.busy_ticks != y.busy_ticks || x.queries != y.queries ||
        x.utilization != y.utilization) {
      return false;
    }
  }
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    const auto& x = a.models[m];
    const auto& y = b.models[m];
    if (x.model != y.model || x.completed != y.completed ||
        x.mean_latency_ms != y.mean_latency_ms ||
        x.p95_latency_ms != y.p95_latency_ms ||
        x.p99_latency_ms != y.p99_latency_ms ||
        x.sla_violation_rate != y.sla_violation_rate || x.swaps != y.swaps) {
      return false;
    }
  }
  return true;
}

bool SameFleetStats(const fleet::FleetStats& a, const fleet::FleetStats& b) {
  if (a.num_servers != b.num_servers ||
      a.routed_queries != b.routed_queries ||
      a.routed_per_server != b.routed_per_server ||
      a.per_server.size() != b.per_server.size() ||
      !SameServerStats(a.aggregate, b.aggregate)) {
    return false;
  }
  for (std::size_t s = 0; s < a.per_server.size(); ++s) {
    if (!SameServerStats(a.per_server[s], b.per_server[s])) return false;
  }
  return true;
}

}  // namespace

int main() {
  using pe::bench::SmokeMode;
  pe::bench::PrintHeader(
      "Engine throughput (simulated queries / wall-clock second)",
      "production engine vs tests/oracle naive engine, identical record "
      "streams");

  const auto repertoire = profile::BuildZooRepertoire(MixModels());
  // Strictest per-model SLA rule across the mix (Section V shape).
  SimTime sla = 0;
  for (int m = 0; m < repertoire.size(); ++m) {
    const double sec = repertoire.profile(m).LatencySec(7, 32);
    sla = std::max(sla, SecToTicks(1.5 * sec));
  }

  const std::size_t num_queries = pe::bench::Queries(60000);
  const int reps = SmokeMode() ? 1 : 2;

  Table table({"workers", "workload", "sched", "queries", "engine_qps",
               "reference_qps", "speedup", "identical"});
  core::Json configs = core::Json::Array();
  double headline_speedup = 0.0;
  double headline_qps = 0.0;

  for (const int workers : {8, 64, 256}) {
    const auto layout = MakeLayout(workers);
    const double rate = RateFor(repertoire, layout);
    for (const bool mixed : {false, true}) {
      const auto trace =
          MakeTrace(mixed, rate, num_queries,
                    0x5EED0 + static_cast<std::uint64_t>(workers));
      for (const bool use_elsa : {false, true}) {
        sim::ServerConfig sc;
        sc.partition_gpcs = layout;
        sc.sla_target = sla;
        sc.seed = 0xBE7C4;
        // Production stack vs the oracle stack: the naive engine with the
        // full-scan ELSA (FIFS runs as is; its vector-view path is the
        // plain idle scan).
        std::unique_ptr<sched::Scheduler> scheduler;
        std::unique_ptr<sched::Scheduler> naive_scheduler;
        if (use_elsa) {
          scheduler = std::make_unique<sched::ElsaScheduler>(repertoire, sla);
          naive_scheduler =
              std::make_unique<oracle::NaiveElsa>(repertoire, sla);
        } else {
          scheduler = std::make_unique<sched::FifsScheduler>();
          naive_scheduler = std::make_unique<sched::FifsScheduler>();
        }
        sim::InferenceServer server(sc, repertoire, *scheduler);
        const Measurement fast = Measure(server, trace, reps);
        oracle::NaiveServer naive(sc, repertoire, *naive_scheduler);
        const Measurement ref = Measure(naive, trace, reps);
        const double speedup = ref.qps > 0.0 ? fast.qps / ref.qps : 0.0;
        const bool identical = fast.hash == ref.hash;
        const std::string workload = mixed ? "mix4" : "single";
        const std::string sched_name = use_elsa ? "ELSA" : "FIFS";
        table.AddRow({std::to_string(workers), workload, sched_name,
                      std::to_string(trace.size()), Table::Num(fast.qps, 0),
                      Table::Num(ref.qps, 0), Table::Num(speedup, 2),
                      identical ? "yes" : "NO"});
        core::Json entry = core::Json::Object();
        entry.Set("workers", workers);
        entry.Set("workload", workload);
        entry.Set("scheduler", sched_name);
        entry.Set("queries", static_cast<std::uint64_t>(trace.size()));
        entry.Set("engine_qps", fast.qps);
        entry.Set("reference_qps", ref.qps);
        entry.Set("speedup", speedup);
        entry.Set("identical", identical);
        configs.Add(std::move(entry));
        if (workers == 256 && mixed && use_elsa) {
          headline_speedup = speedup;
          headline_qps = fast.qps;
        }
        if (!identical) {
          std::cerr << "error: engines diverged at " << workers << "/"
                    << workload << "/" << sched_name << "\n";
          return 1;
        }
      }
    }
  }

  table.Print(std::cout);
  std::cout << "\nheadline (256 partitions, 4-model mix, ELSA): "
            << Table::Num(headline_qps, 0) << " simulated queries/sec, "
            << Table::Num(headline_speedup, 2)
            << "x over the oracle engine\n";

  // ------------------------------------------------------------------
  // Per-decision leg: ELSA's cost per arrival on the engine's live view,
  // best (lowest mean) of `reps` runs per partition count.
  Table decision_table({"workers", "decisions", "elsa_ns_per_decision"});
  core::Json elsa_rows = core::Json::Array();
  for (const int workers : {8, 32, 141, 256}) {
    const auto layout = MakeLayout(workers);
    const double rate = RateFor(repertoire, layout);
    const std::size_t queries = pe::bench::Queries(20000);
    const std::uint64_t seed = 0xDEC0 + static_cast<std::uint64_t>(workers);
    const auto trace = MakeTrace(/*mixed=*/true, rate, queries, seed);
    sim::ServerConfig sc;
    sc.partition_gpcs = layout;
    sc.sla_target = sla;
    sc.seed = 0xBE7C4;
    double best_ns = std::numeric_limits<double>::infinity();
    std::uint64_t decisions = 0;
    for (int r = 0; r < reps; ++r) {
      sched::ElsaScheduler elsa(repertoire, sla);
      TimedScheduler timed(elsa);
      sim::InferenceServer server(sc, repertoire, timed);
      server.Run(trace);
      best_ns = std::min(best_ns, timed.ns_per_decision());
      decisions = timed.decisions();
    }
    decision_table.AddRow({std::to_string(workers), std::to_string(decisions),
                           Table::Num(best_ns, 1)});
    core::Json row = core::Json::Object();
    row.Set("workers", workers);
    row.Set("decisions", decisions);
    row.Set("ns_per_decision", best_ns);
    elsa_rows.Add(std::move(row));
  }
  std::cout << "\nELSA decision cost on the live view (4-model mix):\n";
  decision_table.Print(std::cout);

  // ------------------------------------------------------------------
  // Fleet-scaling leg: the same 4-model mix behind a sharded router
  // tier, each pipeline stage timed fast vs its retained reference.
  const int fleet_servers = SmokeMode() ? 4 : 100;
  const std::size_t fleet_queries = pe::bench::Queries(1'000'000);
  core::FleetTestbedConfig fleet_config;
  for (const auto& name : MixModels()) {
    core::MixModelConfig m;
    m.model = name;
    m.share = 1.0 / static_cast<double>(MixModels().size());
    fleet_config.mix.models.push_back(m);
  }
  fleet_config.num_servers = fleet_servers;
  fleet_config.placement = fleet::PlacementKind::kSharded;
  fleet_config.replicas = SmokeMode() ? 2 : 8;
  fleet_config.policy = fleet::RouterPolicy::kPowerOfTwo;
  const core::FleetTestbed fleet(fleet_config);
  const auto& zoo = fleet.mix().repertoire();
  const auto fleet_trace = fleet.GenerateFleetTrace(
      300.0 * fleet_servers, fleet_queries, /*seed=*/0x5EEDF);
  const int fleet_jobs = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  const double fleet_n = static_cast<double>(fleet_trace.size());

  // Stage 1: routing.  Batched RouteAll (devirtualized loop, cached
  // replica sets, memoized backlog costs, thread-chunked for the
  // stateless hash policy) vs the per-query virtual Route loop, per
  // policy; the assignment vectors must match exactly.
  Table fleet_table(
      {"stage", "policy", "fast_qps", "reference_qps", "speedup", "identical"});
  core::Json router_qps = core::Json::Object();
  core::Json router_reference_qps = core::Json::Object();
  bool router_identical = true;
  // Routing alone is milliseconds per rep; take more reps than the
  // simulator-driving stages so best-of isn't noise-bound.
  const int route_reps = SmokeMode() ? 1 : 5;
  for (const auto policy :
       {fleet::RouterPolicy::kHash, fleet::RouterPolicy::kLeastLoaded,
        fleet::RouterPolicy::kPowerOfTwo}) {
    auto fast_router =
        fleet::MakeRouter(policy, fleet.placement(), &zoo, /*seed=*/0x70C5);
    std::vector<int> fast_assign;
    auto ref_router =
        fleet::MakeRouter(policy, fleet.placement(), &zoo, /*seed=*/0x70C5);
    std::vector<int> ref_assign;
    const StageResult r = MeasureStage(
        fleet_table, "route", ToString(policy), fleet_n, route_reps,
        [&] {
          fast_router->Reset();
          fast_assign = fast_router->RouteAll(fleet_trace, fleet_jobs);
        },
        [&] {
          ref_router->Reset();
          ref_assign.clear();
          ref_assign.reserve(fleet_trace.size());
          for (const auto& q : fleet_trace.queries()) {
            ref_assign.push_back(ref_router->Route(q));
          }
        },
        [&] { return fast_assign == ref_assign; });
    router_identical = router_identical && r.identical;
    router_qps.Set(ToString(policy), r.fast_qps);
    router_reference_qps.Set(ToString(policy), r.reference_qps);
  }

  // Stage 2: trace split.  Two-pass count-then-fill into the flat arena
  // (routing parallelized for stateless policies) vs the per-query
  // lower_bound split oracle; record-for-record identical sub-traces
  // (po2c, the planted fleet policy).
  auto split_router = fleet.cluster().MakeFleetRouter();
  fleet::TraceSplit fast_split;
  fleet::TraceSplit ref_split;
  const StageResult split_r = MeasureStage(
      fleet_table, "split", "po2c", fleet_n, reps,
      [&] {
        split_router->Reset();
        fast_split = fleet::SplitTrace(fleet_trace, *split_router,
                                       fleet.placement(), fleet_jobs);
      },
      [&] {
        split_router->Reset();
        ref_split = oracle::SplitPerQuery(fleet_trace, *split_router,
                                          fleet.placement());
      },
      [&] { return SameSplit(fast_split, ref_split); });
  const bool split_identical = split_r.identical;

  // Per-server record-stream hash: equal hashes across engine variants
  // (and jobs counts) back every apples-to-apples claim below.
  const auto hash_fleet = [](const fleet::FleetResult& r) {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& server : r.per_server) {
      h = (h ^ HashRecords(server.records)) * 1099511628211ull;
    }
    return h;
  };

  // Stage 3: simulate.  The production event core (bucketed calendar,
  // batched same-instant dispatch, epoch-coalesced view refresh) vs the
  // naive oracle engine (binary heap, fresh snapshot vectors) replaying
  // the identical split server by server, so the speedup isolates
  // per-event work, not thread fan-out.  The oracle replay builds every
  // engine from the same cluster (same configs, schedulers and seeds).
  fleet::FleetResult sim_result;
  fleet::FleetResult sim_ref_result;
  const StageResult sim_r = MeasureStage(
      fleet_table, "sim", "jobs=1", fleet_n, reps,
      [&] { sim_result = fleet.cluster().SimulateSplit(fast_split, 1); },
      [&] {
        sim_ref_result = oracle::ReplayFleet(fleet.cluster(), fast_split);
      },
      [&] { return hash_fleet(sim_result) == hash_fleet(sim_ref_result); });
  const bool sim_identical = sim_r.identical;

  // Stage 4: stats reduction over the shared simulate result.  Parallel
  // Stats (per-server folds, no merged record vector) vs the merged-copy
  // oracle; every field must match bit for bit.
  fleet::FleetStats fast_stats;
  fleet::FleetStats ref_stats;
  const StageResult stats_r = MeasureStage(
      fleet_table, "stats", "-", fleet_n, reps,
      [&] {
        fast_stats = sim_result.Stats(fleet.sla_target(),
                                      /*warmup_fraction=*/0.1, fleet_jobs);
      },
      [&] {
        ref_stats = oracle::MergedCopyStats(sim_result, fleet.sla_target(),
                                            /*warmup_fraction=*/0.1);
      },
      [&] { return SameFleetStats(fast_stats, ref_stats); });
  const bool stats_identical = stats_r.identical;

  // End to end: route + split + simulate + stats.  The fast pipeline at
  // --jobs 1 and hardware concurrency; the reference pipeline (the
  // per-query split and merged-copy stats oracles) shares the simulate
  // stage and jobs count, so the speedup isolates the serial-stage work
  // reduction.  The jobs-1 rerun pins the fleet driver's bit-identity
  // claim.
  std::uint64_t fleet_hash_jobs1 = 0;
  std::uint64_t fleet_hash_jobsn = 0;
  const auto fast_pipeline = [&](int jobs, std::uint64_t* hash_out) {
    auto router = fleet.cluster().MakeFleetRouter();
    const auto split =
        fleet::SplitTrace(fleet_trace, *router, fleet.placement(), jobs);
    const auto result = fleet.cluster().SimulateSplit(split, jobs);
    if (hash_out != nullptr) *hash_out = hash_fleet(result);
    const auto stats =
        result.Stats(fleet.sla_target(), /*warmup_fraction=*/0.1, jobs);
    (void)stats;
  };
  const double fast_sec_jobs1 =
      TimeSec([&] { fast_pipeline(1, &fleet_hash_jobs1); }, reps);
  const double fast_sec_jobsn =
      TimeSec([&] { fast_pipeline(fleet_jobs, &fleet_hash_jobsn); }, reps);
  const double ref_pipeline_sec = TimeSec(
      [&] {
        auto router = fleet.cluster().MakeFleetRouter();
        const auto split =
            oracle::SplitPerQuery(fleet_trace, *router, fleet.placement());
        const auto result = fleet.cluster().SimulateSplit(split, fleet_jobs);
        const auto stats = oracle::MergedCopyStats(
            result, fleet.sla_target(), /*warmup_fraction=*/0.1);
        (void)stats;
      },
      reps);
  const double fleet_qps = fast_sec_jobsn > 0.0 ? fleet_n / fast_sec_jobsn
                                                : 0.0;
  const double fleet_qps_jobs1 =
      fast_sec_jobs1 > 0.0 ? fleet_n / fast_sec_jobs1 : 0.0;
  const double fleet_reference_qps =
      ref_pipeline_sec > 0.0 ? fleet_n / ref_pipeline_sec : 0.0;
  const double fleet_speedup =
      fleet_reference_qps > 0.0 ? fleet_qps / fleet_reference_qps : 0.0;
  const bool fleet_identical = fleet_hash_jobs1 == fleet_hash_jobsn;

  std::cout << "\nfleet scaling (" << fleet_servers
            << " servers, sharded, po2c, " << fleet_trace.size()
            << " queries, jobs=" << fleet_jobs << "):\n";
  fleet_table.Print(std::cout);
  std::cout << "sim stage (jobs=1): " << Table::Num(sim_r.speedup, 2)
            << "x over the oracle event core\n";
  std::cout << "fleet pipeline: " << Table::Num(fleet_qps, 0)
            << " queries/sec end-to-end ("
            << Table::Num(fleet_qps_jobs1, 0) << " at jobs=1), "
            << Table::Num(fleet_speedup, 2)
            << "x over the reference pipeline, jobs-1 identical: "
            << (fleet_identical ? "yes" : "NO") << "\n";
  if (!router_identical || !split_identical || !sim_identical ||
      !stats_identical) {
    std::cerr << "error: a fleet fast path diverged from its reference"
              << " (router " << router_identical << ", split "
              << split_identical << ", sim " << sim_identical << ", stats "
              << stats_identical << ")\n";
    return 1;
  }
  if (!fleet_identical) {
    std::cerr << "error: fleet records diverged between --jobs 1 and --jobs "
              << fleet_jobs << "\n";
    return 1;
  }

  // ------------------------------------------------------------------
  // Chaos leg: the same fleet under a deterministic serverloss schedule
  // (fleet/fault.h), with and without degraded-capacity repartition.
  // Gate 1: an EMPTY fault plan must reproduce the batch pipeline's
  // record hash bit for bit -- the fault driver costs nothing when
  // nothing breaks.  Gate 2: conservation -- every injected query ends
  // terminal (completed + failed + shed == injected), so a crash sheds
  // loudly instead of losing work.
  const auto empty_plan_run =
      fleet.RunWithFaults(fleet_trace, fleet::FaultPlan{}, fleet_jobs);
  const bool chaos_identity_ok =
      hash_fleet(empty_plan_run) == fleet_hash_jobsn;

  // Crash ~10% of the fleet permanently, with an end-to-end deadline so
  // overload behind the outage sheds instead of queueing forever.
  const std::string chaos_spec =
      "serverloss:count=" + std::to_string(std::max(1, fleet_servers / 10)) +
      ",deadline-ms=250";
  const auto chaos_plan =
      fleet.ResolveFaults(fleet::ParseFaultRef(chaos_spec), fleet_trace);
  auto chaos_routing_only = chaos_plan;
  chaos_routing_only.repartition = false;
  const auto chaos_run = fleet.RunWithFaults(fleet_trace, chaos_plan,
                                             fleet_jobs);
  const auto chaos_no_repart =
      fleet.RunWithFaults(fleet_trace, chaos_routing_only, fleet_jobs);
  const auto& chaos = chaos_run.fault;
  const bool chaos_conserved =
      chaos.completed + chaos.failed + chaos.shed == chaos.injected &&
      chaos.injected == fleet_trace.size();
  double chaos_min_availability = 1.0;
  for (const double a : chaos.availability) {
    chaos_min_availability = std::min(chaos_min_availability, a);
  }
  // Incident-window p99 vs the fault-free fleet p99: what the outage
  // costs the survivors' tail while it is in progress.
  const double chaos_p99_degradation =
      fast_stats.aggregate.p99_latency_ms > 0.0
          ? chaos.p99_incident_ms / fast_stats.aggregate.p99_latency_ms
          : 0.0;

  std::cout << "chaos (" << chaos_spec << "): "
            << chaos.completed << "/" << chaos.injected << " completed, "
            << chaos.shed << " shed ("
            << chaos_no_repart.fault.shed << " without repartition), "
            << chaos.failed << " failed, min availability "
            << Table::Num(chaos_min_availability, 3)
            << ", chaos_p99_degradation "
            << Table::Num(chaos_p99_degradation, 2)
            << "x, fault-free leg identical: "
            << (chaos_identity_ok ? "yes" : "NO") << "\n";
  if (!chaos_identity_ok) {
    std::cerr << "error: empty fault plan diverged from the batch pipeline\n";
    return 1;
  }
  if (!chaos_conserved) {
    std::cerr << "error: chaos leg lost queries (completed " << chaos.completed
              << " + failed " << chaos.failed << " + shed " << chaos.shed
              << " != injected " << chaos.injected << ")\n";
    return 1;
  }
  if (chaos_min_availability >= 1.0) {
    std::cerr << "error: chaos leg crashed nothing (min availability 1.0)\n";
    return 1;
  }

  // Degraded-capacity comparison: the repartition controller replans a
  // survivor's lane mix from its renormalized model shares, so it can
  // only express itself where servers co-host models.  Densify the
  // placement (two models per server), crash 3/4 of the fleet with a
  // tight deadline so the survivors genuinely overload, and run the
  // identical schedule with and without repartition; failover routing
  // alone must shed measurably more than routing + repartition.
  core::FleetTestbedConfig dense_config = fleet_config;
  dense_config.replicas = std::max(2, fleet_servers / 2);
  const core::FleetTestbed dense(dense_config);
  const auto dense_trace = dense.GenerateFleetTrace(
      300.0 * fleet_servers, fleet_queries, /*seed=*/0x5EEDF);
  const std::string degraded_spec =
      "serverloss:count=" + std::to_string(std::max(1, 3 * fleet_servers / 4)) +
      ",deadline-ms=100";
  const auto degraded_plan =
      dense.ResolveFaults(fleet::ParseFaultRef(degraded_spec), dense_trace);
  auto degraded_routing_only = degraded_plan;
  degraded_routing_only.repartition = false;
  const auto degraded_run =
      dense.RunWithFaults(dense_trace, degraded_plan, fleet_jobs);
  const auto degraded_norep =
      dense.RunWithFaults(dense_trace, degraded_routing_only, fleet_jobs);
  const auto& degraded = degraded_run.fault;
  const std::uint64_t degraded_shed_routing_only = degraded_norep.fault.shed;
  const bool degraded_conserved =
      degraded.completed + degraded.failed + degraded.shed ==
          degraded.injected &&
      degraded_norep.fault.completed + degraded_norep.fault.failed +
              degraded_norep.fault.shed ==
          degraded_norep.fault.injected;

  std::cout << "degraded capacity (" << degraded_spec << ", replicas="
            << dense_config.replicas << "): repartition shed " << degraded.shed
            << " vs routing-only " << degraded_shed_routing_only << " ("
            << degraded.repartitions << " repartitions)\n";
  if (!degraded_conserved) {
    std::cerr << "error: degraded-capacity leg lost queries\n";
    return 1;
  }
  // Smoke's 4-server fleet is too small for a stable margin; the full
  // 100-server run must show repartition strictly ahead.
  if (SmokeMode() ? degraded.shed > degraded_shed_routing_only
                  : degraded.shed >= degraded_shed_routing_only) {
    std::cerr << "error: failover repartition did not lower shed ("
              << degraded.shed << " vs " << degraded_shed_routing_only
              << " routing-only)\n";
    return 1;
  }

  core::Json data = core::Json::Object();
  data.Set("configs", std::move(configs));
  data.Set("engine_qps_256_mix4_elsa", headline_qps);
  data.Set("speedup_256_mix4_elsa", headline_speedup);
  data.Set("elsa_ns_per_decision", std::move(elsa_rows));
  data.Set("fleet_servers", fleet_servers);
  data.Set("fleet_queries", static_cast<std::uint64_t>(fleet_trace.size()));
  data.Set("fleet_jobs", fleet_jobs);
  data.Set("router_qps", std::move(router_qps));
  data.Set("router_reference_qps", std::move(router_reference_qps));
  data.Set("router_identical", router_identical);
  data.Set("split_qps", split_r.fast_qps);
  data.Set("split_reference_qps", split_r.reference_qps);
  data.Set("split_identical", split_identical);
  data.Set("sim_qps", sim_r.fast_qps);
  data.Set("sim_reference_qps", sim_r.reference_qps);
  data.Set("sim_speedup_jobs1", sim_r.speedup);
  data.Set("sim_identical", sim_identical);
  data.Set("stats_sec", stats_r.fast_sec);
  data.Set("stats_reference_sec", stats_r.reference_sec);
  data.Set("stats_identical", stats_identical);
  data.Set("fleet_qps", fleet_qps);
  data.Set("fleet_qps_jobs1", fleet_qps_jobs1);
  data.Set("fleet_reference_qps", fleet_reference_qps);
  data.Set("fleet_speedup", fleet_speedup);
  data.Set("fleet_identical_jobs1", fleet_identical);
  data.Set("chaos_spec", chaos_spec);
  data.Set("chaos_identity_ok", chaos_identity_ok);
  data.Set("chaos_injected", chaos.injected);
  data.Set("chaos_completed", chaos.completed);
  data.Set("chaos_failed", chaos.failed);
  data.Set("chaos_shed", chaos.shed);
  data.Set("chaos_shed_no_repartition", chaos_no_repart.fault.shed);
  data.Set("chaos_retried", chaos.retried);
  data.Set("chaos_rerouted", chaos.rerouted);
  data.Set("chaos_repartitions", chaos.repartitions);
  data.Set("chaos_min_availability", chaos_min_availability);
  data.Set("chaos_p99_incident_ms", chaos.p99_incident_ms);
  data.Set("chaos_p99_degradation", chaos_p99_degradation);
  data.Set("degraded_spec", degraded_spec);
  data.Set("degraded_replicas", dense_config.replicas);
  data.Set("degraded_injected", degraded.injected);
  data.Set("degraded_completed", degraded.completed);
  data.Set("degraded_shed_repartition", degraded.shed);
  data.Set("degraded_shed_routing_only", degraded_shed_routing_only);
  data.Set("degraded_repartitions", degraded.repartitions);
  pe::bench::WriteReport("engine_throughput", std::move(data));
  return 0;
}
