#include "fleet/cluster.h"

#include <algorithm>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace pe::fleet {

std::uint64_t Cluster::ServerSeed(std::uint64_t fleet_seed, int server_id) {
  // Domain-separated double mix: the inner term is unique per (seed, id),
  // the outer mix decorrelates neighbouring ids.  Mix64 is the shared
  // SplitMix64 step from common/rng.h.
  return Mix64(fleet_seed ^
               Mix64(0x5EEDF1EE7ULL + static_cast<std::uint64_t>(server_id)));
}

std::uint64_t Cluster::RouterSeed(std::uint64_t fleet_seed) {
  // Negative "server id" domain: no server can collide with it.
  return Mix64(fleet_seed ^ Mix64(0x12007E12ULL));
}

Cluster::Cluster(FleetConfig config, PlacementMap placement,
                 const profile::ModelRepertoire& zoo, SchedulerFactory factory)
    : config_(std::move(config)),
      placement_(std::move(placement)),
      zoo_(&zoo),
      factory_(std::move(factory)) {
  if (!factory_) {
    throw std::invalid_argument("Cluster: null scheduler factory");
  }
  if (placement_.num_models() > zoo.size()) {
    throw std::invalid_argument(
        "Cluster: placement places model ids the zoo does not register");
  }
  repertoires_.reserve(static_cast<size_t>(placement_.num_servers()));
  for (const ServerPlacement& sp : placement_.servers()) {
    if (sp.partition_gpcs.empty()) {
      throw std::invalid_argument(
          "Cluster: server " + std::to_string(sp.server_id) +
          " has no partition layout (run a planner pass first)");
    }
    // Hosted subset of the zoo, re-registered densely: local id k is the
    // k-th (ascending) hosted global id, matching SplitTrace's re-mapping.
    profile::ModelRepertoire local;
    for (int m : sp.model_ids) {
      local.Register(zoo.name(m), zoo.profile(m), zoo.actual(m));
    }
    repertoires_.push_back(std::move(local));
  }
}

const profile::ModelRepertoire& Cluster::server_repertoire(
    int server_id) const {
  if (server_id < 0 || server_id >= num_servers()) {
    throw std::out_of_range("Cluster::server_repertoire: bad id " +
                            std::to_string(server_id));
  }
  return repertoires_[static_cast<size_t>(server_id)];
}

std::unique_ptr<Router> Cluster::MakeFleetRouter() const {
  return MakeRouter(config_.policy, placement_, zoo_,
                    RouterSeed(config_.seed));
}

FleetResult Cluster::Simulate(const workload::QueryTrace& trace,
                              int jobs) const {
  const auto router = MakeFleetRouter();
  return SimulateSplit(SplitTrace(trace, *router, placement_, jobs), jobs);
}

sim::ServerConfig Cluster::MakeServerConfig(int server_id) const {
  const ServerPlacement& sp = placement_.server(server_id);
  sim::ServerConfig sc;
  sc.partition_gpcs = sp.partition_gpcs;
  sc.sla_target = config_.sla_target;
  sc.latency_noise_sigma = config_.latency_noise_sigma;
  sc.seed = ServerSeed(config_.seed, server_id);
  sc.model_swap_cost = config_.model_swap_cost;
  return sc;
}

std::unique_ptr<sched::Scheduler> Cluster::MakeScheduler(int server_id) const {
  const auto s = static_cast<std::size_t>(server_id);
  return factory_(server_id, repertoires_[s]);
}

void Cluster::FillGlobalTables(FleetResult& result) const {
  const auto n = static_cast<std::size_t>(num_servers());
  result.global_models.clear();
  result.worker_base.clear();
  result.global_models.reserve(n);
  result.worker_base.reserve(n);
  int worker_base = 0;
  for (const ServerPlacement& sp : placement_.servers()) {
    result.global_models.push_back(sp.model_ids);
    result.worker_base.push_back(worker_base);
    worker_base += static_cast<int>(sp.partition_gpcs.size());
  }
}

FleetResult Cluster::SimulateSplit(const TraceSplit& split, int jobs) const {
  if (split.num_servers() != num_servers()) {
    throw std::invalid_argument(
        "Cluster::SimulateSplit: split has " +
        std::to_string(split.num_servers()) + " servers, cluster has " +
        std::to_string(num_servers()));
  }
  const auto n = static_cast<std::size_t>(num_servers());
  // Pure function of the server index: config, placement, repertoire, and
  // sub-trace are all read-only, the scheduler is freshly built per task,
  // and the engine seed comes from the pure ServerSeed derivation.
  auto sims = ParallelMap(n, jobs, [&](std::size_t s) {
    const sim::ServerConfig sc = MakeServerConfig(static_cast<int>(s));
    const auto scheduler = MakeScheduler(static_cast<int>(s));
    sim::InferenceServer server(sc, repertoires_[s], *scheduler);
    return server.Run(split.Server(static_cast<int>(s)));
  });

  FleetResult result;
  result.per_server = std::move(sims);
  result.global_ids = split.global_ids;
  result.id_offsets = split.offsets;
  FillGlobalTables(result);
  return result;
}

namespace {

// The k-th record of `records` in the arrival order sim::ArrivalOrder
// returned for them.
const sim::QueryRecord& At(const std::vector<sim::QueryRecord>& records,
                           const std::vector<std::uint32_t>& order,
                           std::size_t k) {
  return order.empty() ? records[k] : records[order[k]];
}

// The fleet's warm-up cut: the first `skip` records of the merged order
// -- arrival, then server, then position in the server's stable arrival
// order -- as a per-server count of records cut from the front of each
// server's arrival order.  Binary search on the arrival value finds the
// threshold T, the arrival at merged position `skip`: every record
// arriving before T is cut, and the rest of the cut goes to the records
// arriving exactly at T, server-major.
std::vector<std::size_t> FleetCut(
    const std::vector<sim::SimResult>& per_server,
    const std::vector<std::vector<std::uint32_t>>& orders, std::size_t skip) {
  const std::size_t n = per_server.size();
  // Records of server s arriving before `t`.
  const auto before = [&](std::size_t s, SimTime t) {
    const auto& records = per_server[s].records;
    return *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, records.size()),
        [&](std::size_t k) { return At(records, orders[s], k).arrival < t; });
  };
  const auto before_all = [&](SimTime t) {
    std::size_t count = 0;
    for (std::size_t s = 0; s < n; ++s) count += before(s, t);
    return count;
  };
  SimTime lo = std::numeric_limits<SimTime>::max();
  SimTime hi = std::numeric_limits<SimTime>::min();
  for (std::size_t s = 0; s < n; ++s) {
    const auto& records = per_server[s].records;
    if (records.empty()) continue;
    lo = std::min(lo, At(records, orders[s], 0).arrival);
    hi = std::max(hi, At(records, orders[s], records.size() - 1).arrival);
  }
  // Smallest T with more than `skip` records arriving at or before it (the
  // latest arrival when the cut takes everything).
  while (lo < hi) {
    const SimTime mid = lo + (hi - lo) / 2;
    if (before_all(mid + 1) > skip) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<std::size_t> cut(n);
  std::size_t ties = skip;
  for (std::size_t s = 0; s < n; ++s) {
    cut[s] = before(s, lo);
    ties -= cut[s];
  }
  for (std::size_t s = 0; s < n && ties > 0; ++s) {
    const std::size_t take = std::min(ties, before(s, lo + 1) - cut[s]);
    cut[s] += take;
    ties -= take;
  }
  return cut;
}

}  // namespace

FleetStats FleetResult::Stats(SimTime sla_target, double warmup_fraction,
                              int jobs) const {
  FleetStats stats;
  const std::size_t n = per_server.size();
  stats.num_servers = static_cast<int>(n);
  stats.fault = fault;
  for (const sim::SimResult& sr : per_server) {
    stats.routed_per_server.push_back(sr.records.size());
    stats.routed_queries += sr.records.size();
  }
  const auto orders = ParallelMap(n, jobs, [&](std::size_t s) {
    return sim::ArrivalOrder(per_server[s].records);
  });
  const std::vector<std::size_t> cut = FleetCut(
      per_server, orders,
      sim::WarmupSkip(stats.routed_queries, warmup_fraction));

  // Per server: its own stats, and its share of the fleet aggregate --
  // the records past its cut, keyed by fleet-global model ids and
  // server-offset worker indices.
  auto passes = ParallelMap(n, jobs, [&](std::size_t s) {
    const auto& records = per_server[s].records;
    const auto& models = global_models[s];
    sim::ServerStats own =
        sim::ComputeStats(records, sla_target, warmup_fraction);
    for (sim::ModelStats& ms : own.models) {
      ms.model = models[static_cast<std::size_t>(ms.model)];
    }
    sim::StatsFold share(sla_target);
    for (std::size_t k = cut[s]; k < records.size(); ++k) {
      const sim::QueryRecord& r = At(records, orders[s], k);
      share.Add(r, models[static_cast<std::size_t>(r.model)],
                worker_base[s] + r.worker);
    }
    return std::make_pair(std::move(own), std::move(share));
  });

  sim::StatsFold aggregate(sla_target);
  for (auto& [own, share] : passes) {
    stats.per_server.push_back(std::move(own));
    aggregate.Merge(std::move(share));
  }
  stats.aggregate = std::move(aggregate).Finish();
  return stats;
}

}  // namespace pe::fleet
