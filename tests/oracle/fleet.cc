#include "oracle/fleet.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "oracle/engine.h"

namespace pe::oracle {

fleet::TraceSplit SplitPerQuery(const workload::QueryTrace& trace,
                                fleet::Router& router,
                                const fleet::PlacementMap& placement) {
  const auto n = static_cast<std::size_t>(placement.num_servers());
  std::vector<std::vector<workload::Query>> queries(n);
  std::vector<std::vector<std::uint64_t>> global_ids(n);
  for (const workload::Query& q : trace.queries()) {
    const int server = router.Route(q);
    if (server < 0 || static_cast<std::size_t>(server) >= n) {
      throw std::logic_error("SplitPerQuery: router returned bad server id");
    }
    const fleet::ServerPlacement& sp = placement.server(server);
    const auto it = std::lower_bound(sp.model_ids.begin(),
                                     sp.model_ids.end(), q.model_id);
    if (it == sp.model_ids.end() || *it != q.model_id) {
      throw std::logic_error(
          "SplitPerQuery: router sent a query to a server not hosting its "
          "model");
    }
    auto& bucket = queries[static_cast<std::size_t>(server)];
    workload::Query local = q;
    local.id = bucket.size();  // dense per-server ids, as the engine needs
    local.model_id = static_cast<int>(it - sp.model_ids.begin());
    bucket.push_back(local);
    global_ids[static_cast<std::size_t>(server)].push_back(q.id);
  }
  fleet::TraceSplit split;
  split.offsets.push_back(0);
  for (std::size_t s = 0; s < n; ++s) {
    split.arena.insert(split.arena.end(), queries[s].begin(),
                       queries[s].end());
    split.global_ids.insert(split.global_ids.end(), global_ids[s].begin(),
                            global_ids[s].end());
    split.offsets.push_back(split.arena.size());
  }
  return split;
}

namespace {

// The p-th percentile of an ascending vector, interpolating linearly
// between the closest ranks.
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double MeanMs(SimTime sum_ticks, std::size_t count) {
  return TicksToMs(sum_ticks) / static_cast<double>(count);
}

// sim::ComputeStats the plain way: a full stable sort by arrival, the
// first floor(warmup * n) records cut, std::map accumulators per worker
// and per model, and fully sorted latency vectors for the percentiles.
sim::ServerStats NaiveStats(std::vector<sim::QueryRecord> records,
                            SimTime sla_target, double warmup_fraction) {
  std::stable_sort(records.begin(), records.end(),
                   [](const sim::QueryRecord& a, const sim::QueryRecord& b) {
                     return a.arrival < b.arrival;
                   });
  const auto skip = static_cast<std::size_t>(
      warmup_fraction * static_cast<double>(records.size()));

  struct PerModel {
    std::vector<double> latency_ms;
    SimTime latency_ticks = 0;
    std::size_t violations = 0;
    std::size_t swaps = 0;
  };
  sim::ServerStats stats;
  std::set<int> seen_models;  // casualties included
  std::map<int, PerModel> models;
  std::map<std::pair<int, int>, sim::WorkerStats> workers;
  std::vector<double> latency_ms;
  SimTime latency_ticks = 0;
  SimTime queue_ticks = 0;
  std::size_t violations = 0;
  SimTime window_begin = 0;
  SimTime window_end = 0;
  for (std::size_t i = skip; i < records.size(); ++i) {
    const sim::QueryRecord& r = records[i];
    seen_models.insert(r.model);
    if (r.failed) ++stats.failed;
    if (r.shed) ++stats.shed;
    if (r.failed || r.shed) continue;
    if (stats.completed == 0) window_begin = r.arrival;
    window_end = std::max(window_end, r.finished);
    ++stats.completed;
    latency_ms.push_back(TicksToMs(r.Latency()));
    latency_ticks += r.Latency();
    queue_ticks += r.QueueDelay();
    const bool violated = r.Latency() > sla_target;
    if (violated) ++violations;
    if (r.reconfig_stalls > 0) ++stats.reconfig_stalled;
    if (r.model_swap) ++stats.model_swaps;

    sim::WorkerStats& w = workers[{r.worker, r.worker_gpcs}];
    w.index = r.worker;
    w.gpcs = r.worker_gpcs;
    w.busy_ticks += r.finished - r.started;
    ++w.queries;

    PerModel& m = models[r.model];
    m.latency_ms.push_back(TicksToMs(r.Latency()));
    m.latency_ticks += r.Latency();
    if (violated) ++m.violations;
    if (r.model_swap) ++m.swaps;
  }
  if (stats.completed == 0) return stats;

  std::sort(latency_ms.begin(), latency_ms.end());
  stats.mean_latency_ms = MeanMs(latency_ticks, stats.completed);
  stats.p50_latency_ms = SortedPercentile(latency_ms, 50.0);
  stats.p95_latency_ms = SortedPercentile(latency_ms, 95.0);
  stats.p99_latency_ms = SortedPercentile(latency_ms, 99.0);
  stats.max_latency_ms = latency_ms.back();
  stats.mean_queue_delay_ms = MeanMs(queue_ticks, stats.completed);
  stats.sla_violation_rate = static_cast<double>(violations) /
                             static_cast<double>(stats.completed);

  const SimTime span = window_end - window_begin;
  if (span > 0) {
    stats.achieved_qps =
        static_cast<double>(stats.completed) / TicksToSec(span);
  }
  double gpc_busy = 0.0;
  double gpc_total = 0.0;
  for (auto& [key, w] : workers) {
    if (span > 0) {
      w.utilization = std::min(
          1.0, static_cast<double>(w.busy_ticks) / static_cast<double>(span));
    }
    gpc_busy += w.utilization * w.gpcs;
    gpc_total += w.gpcs;
    stats.workers.push_back(w);
  }
  if (span > 0 && gpc_total > 0.0) {
    stats.mean_worker_utilization = gpc_busy / gpc_total;
  }

  for (auto& [model, m] : models) {
    sim::ModelStats ms;
    ms.model = model;
    ms.completed = m.latency_ms.size();
    if (seen_models.size() == 1) {
      // One model: its slice is the aggregate.
      ms.mean_latency_ms = stats.mean_latency_ms;
      ms.p95_latency_ms = stats.p95_latency_ms;
      ms.p99_latency_ms = stats.p99_latency_ms;
      ms.sla_violation_rate = stats.sla_violation_rate;
    } else {
      std::sort(m.latency_ms.begin(), m.latency_ms.end());
      ms.mean_latency_ms = MeanMs(m.latency_ticks, ms.completed);
      ms.p95_latency_ms = SortedPercentile(m.latency_ms, 95.0);
      ms.p99_latency_ms = SortedPercentile(m.latency_ms, 99.0);
      ms.sla_violation_rate = static_cast<double>(m.violations) /
                              static_cast<double>(ms.completed);
    }
    ms.swaps = m.swaps;
    stats.models.push_back(ms);
  }
  return stats;
}

}  // namespace

fleet::FleetStats MergedCopyStats(const fleet::FleetResult& result,
                                  SimTime sla_target,
                                  double warmup_fraction) {
  fleet::FleetStats stats;
  stats.num_servers = static_cast<int>(result.per_server.size());
  std::vector<sim::QueryRecord> merged;
  for (std::size_t s = 0; s < result.per_server.size(); ++s) {
    const auto& records = result.per_server[s].records;
    const auto& models = result.global_models[s];
    sim::ServerStats server_stats =
        NaiveStats(records, sla_target, warmup_fraction);
    for (auto& ms : server_stats.models) {
      ms.model = models[static_cast<std::size_t>(ms.model)];
    }
    stats.per_server.push_back(std::move(server_stats));
    stats.routed_per_server.push_back(records.size());
    stats.routed_queries += records.size();
    for (const sim::QueryRecord& r : records) {
      sim::QueryRecord g = r;
      g.model = models[static_cast<std::size_t>(r.model)];
      g.worker = result.worker_base[s] + r.worker;
      merged.push_back(g);
    }
  }
  stats.aggregate = NaiveStats(std::move(merged), sla_target, warmup_fraction);
  stats.fault = result.fault;
  return stats;
}

fleet::FleetResult ReplayFleet(const fleet::Cluster& cluster,
                               const fleet::TraceSplit& split) {
  if (split.num_servers() != cluster.num_servers()) {
    throw std::invalid_argument("ReplayFleet: split/cluster size mismatch");
  }
  fleet::FleetResult result;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    const auto scheduler = cluster.MakeScheduler(s);
    NaiveServer server(cluster.MakeServerConfig(s),
                       cluster.server_repertoire(s), *scheduler);
    result.per_server.push_back(server.Run(split.Server(s)));
  }
  result.global_ids = split.global_ids;
  result.id_offsets = split.offsets;
  cluster.FillGlobalTables(result);
  return result;
}

fleet::FleetResult ReplayFleet(const fleet::Cluster& cluster,
                               const workload::QueryTrace& trace) {
  const auto router = cluster.MakeFleetRouter();
  return ReplayFleet(cluster,
                     SplitPerQuery(trace, *router, cluster.placement()));
}

}  // namespace pe::oracle
