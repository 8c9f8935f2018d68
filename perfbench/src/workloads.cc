#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/fleet_runner.h"
#include "core/mix_runner.h"
#include "core/result_io.h"
#include "fleet/cluster.h"
#include "fleet/failover.h"
#include "fleet/fault.h"
#include "partition/mix.h"
#include "sched/elsa.h"
#include "sim/server.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

namespace core = pe::core;
namespace fleet = pe::fleet;
namespace sim = pe::sim;
namespace workload = pe::workload;
using pe::SimTime;

constexpr double kWarmupFraction = 0.1;

// fleet_steady / fleet_chaos: 100 servers, each 48 GPCs on 8 GPUs.
constexpr int kServers = 100;
constexpr int kReplicas = 3;
// Per server, just below the fleet knee (p99 69.2 ms against a 69.4 ms
// SLA at seed 7; 400 qps/server already queues to seconds).
constexpr double kFleetQpsPerServer = 300.0;
constexpr std::size_t kFleetQueries = 1'000'000;
constexpr int kFleetJobs = 2;
constexpr const char* kChaosScenario = "flashcrowd";
constexpr const char* kChaosFaults = "cascade:count=10,deadline-ms=250";

// server_wide: one 40-GPU server searched for its latency-bounded
// throughput (paper Fig. 12 rule).  The search starts at a fixed rate
// below the ~8k qps knee, where the latency metrics are read: at the
// accepted rate itself p99 spreads ~10% from seed to seed.
constexpr int kWideGpus = 40;
constexpr std::size_t kProbeQueries = 120'000;
constexpr double kFixedQps = 7000.0;
constexpr double kSearchStep = 1.25;
constexpr int kBracketLimit = 8;
constexpr int kBisections = 5;
constexpr double kMinAchievedShare = 0.98;

core::MixConfig ZooMix(int num_gpus, int gpc_budget) {
  core::MixConfig mc;
  for (const char* model : {"resnet", "mobilenet", "bert", "shufflenet"}) {
    core::MixModelConfig m;
    m.model = model;
    mc.models.push_back(m);
  }
  mc.num_gpus = num_gpus;
  mc.gpc_budget = gpc_budget;
  return mc;
}

// FNV-1a with 64-bit words as the unit.
class Hasher {
 public:
  void Add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void HashRecord(Hasher& h, std::uint64_t gid, const sim::QueryRecord& r) {
  h.Add(gid);
  h.Add(static_cast<std::uint64_t>(r.model));
  h.Add(static_cast<std::uint64_t>(r.batch));
  h.Add(static_cast<std::uint64_t>(r.arrival));
  h.Add(static_cast<std::uint64_t>(r.dispatched));
  h.Add(static_cast<std::uint64_t>(r.started));
  h.Add(static_cast<std::uint64_t>(r.finished));
  h.Add(static_cast<std::uint64_t>(r.worker));
  h.Add(static_cast<std::uint64_t>(r.worker_gpcs));
  h.Add(static_cast<std::uint64_t>(r.reconfig_stalls));
  h.Add(static_cast<std::uint64_t>(r.retries));
  h.Add(static_cast<std::uint64_t>(r.model_swap) |
        static_cast<std::uint64_t>(r.failed) << 1 |
        static_cast<std::uint64_t>(r.shed) << 2);
}

// Nearest-rank percentile of `v` (reordered in place).
SimTime Quantile(std::vector<SimTime>& v, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(
                                  std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(v.begin(), it, v.end());
  return *it;
}

// Classifies every scheduled query of `trace` by its attempts' records
// (fleet-global ids) and derives the simulated end-to-end metrics.
class Tally {
 public:
  explicit Tally(const workload::QueryTrace& trace)
      : trace_(trace), finished_(trace.size(), -1) {}

  void Add(std::uint64_t gid, const sim::QueryRecord& r,
           std::vector<std::string>& errors) {
    ++records_;
    HashRecord(hash_, gid, r);
    if (gid >= finished_.size()) {
      errors.push_back("record for unknown query id " + std::to_string(gid));
      return;
    }
    if (r.failed) {
      ++failed_records_;
    } else if (r.shed) {
      ++shed_records_;
    } else if (finished_[gid] >= 0) {
      errors.push_back("query " + std::to_string(gid) + " completed twice");
    } else {
      finished_[gid] = r.finished;
    }
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t failed_records() const { return failed_records_; }
  std::uint64_t shed_records() const { return shed_records_; }

  Outcome Finish(SimTime sla, std::vector<std::string>& errors) const {
    const auto& q = trace_.queries();
    const std::size_t n = q.size();
    const auto warm = static_cast<std::size_t>(
        std::floor(kWarmupFraction * static_cast<double>(n)));
    Outcome o;
    o.injected = n;
    o.hash = hash_.value();
    std::vector<SimTime> latencies;
    latencies.reserve(n - warm);
    std::uint64_t over = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (q[i].id != i || (i > 0 && q[i].arrival < q[i - 1].arrival)) {
        errors.push_back("trace is not id-dense in arrival order");
        return o;
      }
      const bool done = finished_[i] >= 0;
      o.completed += done ? 1 : 0;
      if (i < warm) continue;
      if (!done) continue;
      const SimTime latency = finished_[i] - q[i].arrival;
      latencies.push_back(latency);
      over += latency > sla ? 1 : 0;
    }
    o.casualties = n - o.completed;
    o.latency_samples = latencies.size();
    if (latencies.size() < 10'000) {
      errors.push_back("fewer than 10000 latency samples: p99.9 unsupported");
      return o;
    }
    o.p50_ms = pe::TicksToMs(Quantile(latencies, 0.50));
    o.p99_ms = pe::TicksToMs(Quantile(latencies, 0.99));
    o.p999_ms = pe::TicksToMs(Quantile(latencies, 0.999));
    const double post = static_cast<double>(n - warm);
    o.sla_attainment = static_cast<double>(latencies.size() - over) / post;
    o.completed_frac =
        static_cast<double>(o.completed) / static_cast<double>(n);
    const double span_sec =
        pe::TicksToSec(q[n - 1].arrival - q[warm].arrival);
    o.goodput_qps =
        static_cast<double>(latencies.size() - over) / span_sec;
    return o;
  }

 private:
  const workload::QueryTrace& trace_;
  std::vector<SimTime> finished_;  // -1 until an attempt completes
  Hasher hash_;
  std::uint64_t records_ = 0, failed_records_ = 0, shed_records_ = 0;
};

void Check(bool ok, const std::string& what,
           std::vector<std::string>& errors) {
  if (!ok) errors.push_back(what);
}

// Counts every Phase() reports from the program's own statistics.
void AddServerCounts(const sim::ServerStats& s, std::size_t records,
                     PhaseResult& out) {
  out.counts["sim.queue_delay_ms"] = s.mean_queue_delay_ms;
  out.counts["sim.utilization"] = s.mean_worker_utilization;
  out.counts["sim.model_swaps"] = static_cast<double>(s.model_swaps);
  out.counts["sim.reconfig_stalled"] =
      static_cast<double>(s.reconfig_stalled);
  out.counts["sim.record_bytes"] =
      static_cast<double>(records * sizeof(sim::QueryRecord));
}

// ---------------------------------------------------------------------
// fleet_steady and fleet_chaos

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, bool chaos)
      : seed_(seed), chaos_(chaos), counters_(kServers) {
    cfg_.mix = ZooMix(/*num_gpus=*/8, /*gpc_budget=*/48);
    cfg_.num_servers = kServers;
    cfg_.placement = fleet::PlacementKind::kSharded;
    cfg_.replicas = kReplicas;
    cfg_.policy = fleet::RouterPolicy::kPowerOfTwo;
    cfg_.scheduler = core::SchedulerKind::kElsa;
    cfg_.seed = seed;
  }

  int jobs() const override { return kFleetJobs; }

  void Setup() override { tb_ = std::make_unique<core::FleetTestbed>(cfg_); }

  std::vector<std::string> TraceSetup(Tracer& tracer) override {
    std::vector<std::string> errors;
    const Scope root(&tracer, "bench.setup");
    std::unique_ptr<core::MixTestbed> mix;
    {
      const Scope s(&tracer, "profile.build");
      mix = std::make_unique<core::MixTestbed>(cfg_.mix);
    }
    {
      const Scope s(&tracer, "partition.plan");
      for (int i = 0; i < kServers; ++i) {
        const fleet::ServerPlacement& sp = tb_->placement().server(i);
        const auto layout =
            pe::partition::PlanMixedParis(mix->PlannerInputs(sp.model_ids),
                                          mix->cluster(), sp.gpc_budget,
                                          cfg_.mix.paris)
                .plan.instance_gpcs;
        Check(layout == sp.partition_gpcs,
              "server " + std::to_string(i) +
                  ": re-planned layout differs from the testbed's",
              errors);
      }
    }
    {
      // Same placement and config as the testbed's cluster; only the
      // scheduler is wrapped, which the traced-vs-untraced hash check
      // proves changes nothing.
      const Scope s(&tracer, "fleet.cluster");
      pe::sched::ElsaParams elsa = cfg_.elsa;
      if (elsa.swap_cost_sec == 0.0) {
        elsa.swap_cost_sec = cfg_.mix.swap_cost_us * 1e-6;
      }
      const SimTime sla = tb_->sla_target();
      traced_cluster_ = std::make_unique<fleet::Cluster>(
          tb_->cluster().config(), tb_->placement(), tb_->mix().repertoire(),
          [this, elsa, sla](int server,
                            const pe::profile::ModelRepertoire& repertoire)
              -> std::unique_ptr<pe::sched::Scheduler> {
            return std::make_unique<TimedScheduler>(
                std::make_unique<pe::sched::ElsaScheduler>(repertoire, sla,
                                                           elsa),
                counters_[static_cast<std::size_t>(server)]);
          });
    }
    return errors;
  }

  PhaseResult Phase(Tracer* tracer, int jobs) override {
    PhaseResult out;
    std::fill(counters_.begin(), counters_.end(), SchedCounters{});
    int replans = 0;
    workload::QueryTrace trace;
    fleet::FleetResult result;
    fleet::FleetStats stats;
    std::string report;
    const auto t0 = Clock::now();
    {
      const Scope phase(tracer, "bench.phase");
      {
        const Scope s(tracer, "workload.gen");
        if (chaos_) {
          workload::ScenarioSpec spec =
              tb_->mix().ScenarioFor(kFleetQpsPerServer * kServers);
          workload::ApplyScenario(spec, kChaosScenario);
          trace = workload::GenerateScenarioTrace(spec, kFleetQueries, seed_);
        } else {
          trace = tb_->GenerateFleetTrace(kFleetQpsPerServer * kServers,
                                          kFleetQueries, seed_);
        }
      }
      if (chaos_) {
        fleet::FaultPlan plan;
        {
          const Scope s(tracer, "fleet.resolve_faults");
          plan = tb_->ResolveFaults(fleet::ParseFaultRef(kChaosFaults), trace);
        }
        const Scope s(tracer, "fleet.simulate_faults");
        fleet::ReplanFn replan;
        if (plan.repartition) replan = tb_->MakeReplanFn();
        if (tracer != nullptr && replan) {
          replan = [tracer, &replans, inner = std::move(replan)](
                       int server, const std::vector<int>& down) {
            const Scope r(tracer, "online.replan", server);
            ++replans;
            return inner(server, down);
          };
        }
        result = fleet::SimulateWithFaults(
            tracer != nullptr ? *traced_cluster_ : tb_->cluster(), trace, plan,
            jobs, replan);
        if (tracer != nullptr) {
          for (int i = 0; i < kServers; ++i) {
            tracer->AddAccumulated(
                "sched.decide",
                counters_[static_cast<std::size_t>(i)].decide_ns, i);
          }
        }
      } else {
        fleet::TraceSplit split;
        {
          const Scope s(tracer, "fleet.split");
          auto router = tb_->cluster().MakeFleetRouter();
          if (tracer != nullptr) {
            TimedRouter timed(std::move(router), *tracer);
            split = fleet::SplitTrace(trace, timed, tb_->placement(), jobs);
          } else {
            split = fleet::SplitTrace(trace, *router, tb_->placement(), jobs);
          }
        }
        result = tracer != nullptr ? ReplayServers(split, *tracer)
                                   : tb_->cluster().SimulateSplit(split, jobs);
      }
      {
        const Scope s(tracer, "fleet.stats");
        stats = result.Stats(tb_->sla_target(), kWarmupFraction, jobs);
      }
      {
        const Scope s(tracer, "core.report");
        report = core::ToJson(stats).Dump();
      }
    }
    out.host_ns = ElapsedNs(t0);
    out.queries = trace.size();
    out.pipelines = 1;

    Tally tally(trace);
    for (int s = 0; s < static_cast<int>(result.per_server.size()); ++s) {
      const auto gids = result.GlobalIds(s);
      const auto& records = result.per_server[static_cast<std::size_t>(s)]
                                .records;
      Check(gids.size() == records.size(),
            "server " + std::to_string(s) + ": id map size mismatch",
            out.errors);
      for (const sim::QueryRecord& r : records) {
        if (r.id >= gids.size()) {
          out.errors.push_back("record with out-of-range local id");
          continue;
        }
        const std::uint64_t gid = gids[r.id];
        if (!chaos_ && gid < trace.size()) {
          Check(r.arrival == trace.queries()[gid].arrival,
                "fault-free record arrival differs from the schedule",
                out.errors);
        }
        tally.Add(gid, r, out.errors);
      }
    }
    out.outcome = tally.Finish(tb_->sla_target(), out.errors);
    const Outcome& o = out.outcome;
    if (chaos_) {
      const fleet::FaultSummary& f = stats.fault;
      Check(f.completed + f.failed + f.shed == f.injected,
            "conservation: completed + failed + shed != injected",
            out.errors);
      Check(f.injected == o.injected && f.completed == o.completed &&
                f.failed + f.shed == o.casualties,
            "fault summary disagrees with the records", out.errors);
      out.counts["fleet.retried"] = static_cast<double>(f.retried);
      out.counts["fleet.rerouted"] = static_cast<double>(f.rerouted);
      out.counts["fleet.shed"] = static_cast<double>(f.shed);
      out.counts["fleet.p99_incident_ms"] = f.p99_incident_ms;
      out.counts["fleet.goodput_ratio"] =
          static_cast<double>(f.completed) /
          static_cast<double>(f.injected + f.retried);
    } else {
      // Fault-free: exactly one completed record per scheduled query.
      Check(o.completed + tally.failed_records() + tally.shed_records() ==
                    o.injected &&
                tally.records() == o.injected && o.casualties == 0,
            "conservation: completed + failed + shed != injected",
            out.errors);
      out.counts["fleet.goodput_ratio"] =
          static_cast<double>(o.completed) / static_cast<double>(o.injected);
    }
    const auto& routed = stats.routed_per_server;
    if (!routed.empty()) {
      const double total = static_cast<double>(stats.routed_queries);
      out.counts["fleet.route_imbalance"] =
          static_cast<double>(*std::max_element(routed.begin(), routed.end())) /
          (total / static_cast<double>(routed.size()));
    }
    AddServerCounts(stats.aggregate, tally.records(), out);
    out.counts["workload.queries"] = static_cast<double>(trace.size());
    std::size_t workers_max = 0;
    for (const auto& sp : tb_->placement().servers()) {
      workers_max = std::max(workers_max, sp.partition_gpcs.size());
    }
    out.counts["partition.workers_max"] = static_cast<double>(workers_max);
    // Set-up plans every server once; each replan plans one more layout.
    out.counts["partition.plans"] = kServers + replans;
    if (tracer != nullptr) {
      SchedCounters sum;
      for (const SchedCounters& c : counters_) {
        sum.decisions += c.decisions;
        sum.requeues += c.requeues;
      }
      out.counts["sched.decisions"] = static_cast<double>(sum.decisions);
      out.counts["sched.requeues"] = static_cast<double>(sum.requeues);
      out.counts["online.replans"] = replans;
    }
    return out;
  }

 private:
  // Cluster::SimulateSplit, one server at a time on the traced cluster so
  // each server's span is exact.
  fleet::FleetResult ReplayServers(const fleet::TraceSplit& split,
                                   Tracer& tracer) const {
    const fleet::Cluster& cluster = *traced_cluster_;
    fleet::FleetResult result;
    result.per_server.reserve(static_cast<std::size_t>(kServers));
    for (int s = 0; s < cluster.num_servers(); ++s) {
      const Scope span(&tracer, "sim.server", s);
      const auto scheduler = cluster.MakeScheduler(s);
      sim::InferenceServer server(cluster.MakeServerConfig(s),
                                  cluster.server_repertoire(s), *scheduler);
      result.per_server.push_back(server.Run(split.Server(s)));
      tracer.AddAccumulated(
          "sched.decide", counters_[static_cast<std::size_t>(s)].decide_ns,
          s);
    }
    result.global_ids = split.global_ids;
    result.id_offsets = split.offsets;
    cluster.FillGlobalTables(result);
    return result;
  }

  core::FleetTestbedConfig cfg_;
  std::uint64_t seed_;
  bool chaos_;
  std::unique_ptr<core::FleetTestbed> tb_;
  // Indexed by server id; sized once so TimedScheduler references stay
  // valid.
  std::vector<SchedCounters> counters_;
  std::unique_ptr<fleet::Cluster> traced_cluster_;
};

// ---------------------------------------------------------------------
// server_wide

class ServerWide final : public Workload {
 public:
  explicit ServerWide(std::uint64_t seed)
      : cfg_(ZooMix(kWideGpus, kWideGpus * 7)), seed_(seed) {}

  int jobs() const override { return 1; }

  void Setup() override {
    tb_ = std::make_unique<core::MixTestbed>(cfg_);
    layout_ = tb_->PlanMixed().plan.instance_gpcs;
  }

  std::vector<std::string> TraceSetup(Tracer& tracer) override {
    std::vector<std::string> errors;
    const Scope root(&tracer, "bench.setup");
    std::unique_ptr<core::MixTestbed> mix;
    {
      const Scope s(&tracer, "profile.build");
      mix = std::make_unique<core::MixTestbed>(cfg_);
    }
    const Scope s(&tracer, "partition.plan");
    Check(mix->PlanMixed().plan.instance_gpcs == layout_,
          "re-planned layout differs from set-up's", errors);
    return errors;
  }

  PhaseResult Phase(Tracer* tracer, int /*jobs*/) override {
    PhaseResult out;
    decide_total_ = SchedCounters{};
    Hasher search_hash;
    // Every probe is kept until the search ends, so peak memory does not
    // depend on which probes the search path happened to accept.
    std::vector<std::shared_ptr<Probe>> probes;
    std::shared_ptr<Probe> fixed, best;
    double lo = 0.0, hi = 0.0;
    const auto t0 = Clock::now();
    {
      const Scope phase(tracer, "bench.phase");
      const auto probe = [&](double rate) {
        std::shared_ptr<Probe> p = RunProbe(rate, tracer, out);
        probes.push_back(p);
        search_hash.Add(rate);
        search_hash.Add(p->stats.p95_latency_ms);
        search_hash.Add(p->stats.achieved_qps);
        search_hash.Add(p->stats.mean_latency_ms);
        search_hash.Add(static_cast<std::uint64_t>(p->stats.completed));
        if (p->pass) {
          lo = rate;
          best = p;
        } else {
          hi = rate;
        }
        return p;
      };
      // Bracket geometrically from the fixed rate, then bisect.
      fixed = probe(kFixedQps);
      for (int i = 0; i < kBracketLimit && (lo == 0.0 || hi == 0.0); ++i) {
        probe(lo > 0.0 ? lo * kSearchStep : hi / kSearchStep);
      }
      for (int i = 0; i < kBisections && lo > 0.0 && hi > 0.0; ++i) {
        probe(0.5 * (lo + hi));
      }
    }
    out.host_ns = ElapsedNs(t0);
    if (lo == 0.0 || hi == 0.0) {
      out.errors.push_back("latency-bounded throughput search did not bracket");
      return out;
    }

    // Latency at the fixed rate; goodput at the accepted rate.
    out.outcome = Summarize(*fixed, out.errors);
    const Outcome accepted = Summarize(*best, out.errors);
    out.outcome.goodput_qps = accepted.goodput_qps;
    // Every probe's statistics, then both summarized probes' records.
    search_hash.Add(out.outcome.hash);
    search_hash.Add(accepted.hash);
    out.outcome.hash = search_hash.value();
    out.counts["core.lbt_qps"] = lo;
    out.counts["fleet.goodput_ratio"] = out.outcome.completed_frac;
    AddServerCounts(fixed->stats, fixed->result.records.size(), out);
    out.counts["workload.queries"] = static_cast<double>(out.queries);
    out.counts["partition.plans"] = 1;
    out.counts["partition.workers_max"] = static_cast<double>(layout_.size());
    if (tracer != nullptr) {
      out.counts["sched.decisions"] =
          static_cast<double>(decide_total_.decisions);
      out.counts["sched.requeues"] =
          static_cast<double>(decide_total_.requeues);
    }
    return out;
  }

 private:
  struct Probe {
    bool pass = false;
    workload::QueryTrace trace;
    sim::SimResult result;
    sim::ServerStats stats;
    std::string report;
  };

  Outcome Summarize(const Probe& p, std::vector<std::string>& errors) const {
    Tally tally(p.trace);
    for (const sim::QueryRecord& r : p.result.records) {
      tally.Add(r.id, r, errors);
      Check(r.arrival == p.trace.queries()[r.id].arrival,
            "record arrival differs from the schedule", errors);
    }
    const Outcome o = tally.Finish(tb_->sla_target(), errors);
    Check(o.completed + tally.failed_records() + tally.shed_records() ==
                  o.injected &&
              tally.records() == o.injected && o.casualties == 0,
          "conservation: completed + failed + shed != injected", errors);
    return o;
  }

  std::shared_ptr<Probe> RunProbe(double rate, Tracer* tracer,
                                  PhaseResult& out) {
    auto p = std::make_shared<Probe>();
    {
      const Scope s(tracer, "workload.gen");
      p->trace = tb_->GenerateMix(rate, kProbeQueries, seed_);
    }
    {
      const Scope s(tracer, "sim.server", 0);
      auto scheduler = tb_->MakeScheduler(core::SchedulerKind::kElsa);
      if (tracer != nullptr) {
        SchedCounters c;
        TimedScheduler timed(std::move(scheduler), c);
        p->result = tb_->Run(layout_, timed, p->trace, seed_);
        tracer->AddAccumulated("sched.decide", c.decide_ns, 0);
        decide_total_.decisions += c.decisions;
        decide_total_.requeues += c.requeues;
      } else {
        p->result = tb_->Run(layout_, *scheduler, p->trace, seed_);
      }
    }
    {
      const Scope s(tracer, "sim.stats");
      p->stats = p->result.Stats(tb_->sla_target(), kWarmupFraction);
    }
    {
      const Scope s(tracer, "core.report");
      p->report = core::ToJson(p->stats).Dump();
    }
    p->pass = p->stats.p95_latency_ms <= pe::TicksToMs(tb_->sla_target()) &&
              p->stats.achieved_qps >= kMinAchievedShare * rate;
    out.queries += p->trace.size();
    ++out.pipelines;
    return p;
  }

  core::MixConfig cfg_;
  std::uint64_t seed_;
  std::unique_ptr<core::MixTestbed> tb_;
  std::vector<int> layout_;
  SchedCounters decide_total_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "fleet_steady") {
    return std::make_unique<FleetWorkload>(seed, /*chaos=*/false);
  }
  if (name == "fleet_chaos") {
    return std::make_unique<FleetWorkload>(seed, /*chaos=*/true);
  }
  if (name == "server_wide") return std::make_unique<ServerWide>(seed);
  return nullptr;
}

}  // namespace perfbench
