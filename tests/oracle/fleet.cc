#include "oracle/fleet.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "oracle/engine.h"
#include "sim/metrics.h"

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
        sim::ComputeStats(records, sla_target, warmup_fraction);
    for (auto& ms : server_stats.models) {
      ms.model = models[static_cast<std::size_t>(ms.model)];
    }
    stats.per_server.push_back(std::move(server_stats));
    stats.routed_per_server.push_back(records.size());
    stats.routed_queries += records.size();
    const std::span<const std::uint64_t> ids =
        result.GlobalIds(static_cast<int>(s));
    for (const sim::QueryRecord& r : records) {
      sim::QueryRecord g = r;
      g.id = ids[static_cast<std::size_t>(r.id)];
      g.model = models[static_cast<std::size_t>(r.model)];
      g.worker = result.worker_base[s] + r.worker;
      merged.push_back(g);
    }
  }
  stats.aggregate = sim::ComputeStats(merged, sla_target, warmup_fraction);
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
