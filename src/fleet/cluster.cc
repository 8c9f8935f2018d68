#include "fleet/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
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

// Per-server side outputs of the parallel stats pass.
struct ServerPass {
  sim::ServerStats stats;
  // Stable arrival permutation over the server's records; empty when the
  // records are already arrival-sorted (the normal case: sub-traces keep
  // the fleet trace's arrival order), in which case it is the identity.
  std::vector<std::uint32_t> perm;
};

// Per-server extraction over the records the fleet-level warmup cut keeps.
struct ServerExtract {
  std::size_t violations = 0;
  std::size_t reconfig_stalled = 0;
  std::size_t model_swaps = 0;
  SimTime window_end = 0;
  // Flattened (fleet-global index, gpcs)-sorted worker accumulators.
  std::vector<sim::WorkerStats> workers;
  // Indexed by fleet-global model id (sized only when multi-model).
  std::vector<std::size_t> model_completed;
  std::vector<std::size_t> model_violations;
  std::vector<std::size_t> model_swaps_by_model;
  std::vector<std::vector<double>> model_latency_ms;
};

const sim::QueryRecord& RecordAt(const std::vector<sim::QueryRecord>& records,
                                 const std::vector<std::uint32_t>& perm,
                                 std::size_t k) {
  return perm.empty() ? records[k] : records[perm[k]];
}

// Exact Percentile::Value / Max arithmetic over an unsorted multiset,
// computed by selection instead of a full sort: std::nth_element places
// the same order statistics std::sort would, and the interpolation below
// mirrors Percentile::Value term for term, so the results are
// bit-identical at linear instead of n-log-n cost.  Queries must come in
// non-decreasing rank order (P50, P95, P99, Max): each call partitions the
// vector at the ranks it touches, and the consecutive (lo, lo+1) pairs it
// selects are exactly the positions a later, larger rank may re-read.
class QuantileSelector {
 public:
  explicit QuantileSelector(std::vector<double> samples)
      : v_(std::move(samples)) {}

  double Value(double p) {
    if (v_.empty()) return 0.0;
    if (v_.size() == 1) return v_.front();
    const double rank = (p / 100.0) * static_cast<double>(v_.size() - 1);
    const auto lo_idx = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo_idx);
    if (lo_idx + 1 >= v_.size()) return OrderStat(v_.size() - 1);
    const double lo = OrderStat(lo_idx);
    const double hi = OrderStat(lo_idx + 1);
    return lo * (1.0 - frac) + hi * frac;
  }

  double Max() {
    if (v_.empty()) return 0.0;
    return OrderStat(v_.size() - 1);
  }

 private:
  // k-th smallest.  v_[0, done_) holds the smallest done_ elements, so
  // partitioning from done_ keeps every nth_element call global.
  double OrderStat(std::size_t k) {
    if (k >= done_) {
      std::nth_element(v_.begin() + static_cast<std::ptrdiff_t>(done_),
                       v_.begin() + static_cast<std::ptrdiff_t>(k), v_.end());
      done_ = k + 1;
    }
    return v_[k];
  }

  std::vector<double> v_;
  std::size_t done_ = 0;
};

}  // namespace

FleetStats FleetResult::Stats(SimTime sla_target, double warmup_fraction,
                              int jobs) const {
  FleetStats stats;
  const std::size_t n = per_server.size();
  stats.num_servers = static_cast<int>(n);

  // Phase A (parallel): per-server ServerStats -- each a pure function of
  // that server's records -- plus the stable arrival permutation the merge
  // walk needs when a record array is not already arrival-sorted.
  auto passes = ParallelMap(n, jobs, [&](std::size_t s) {
    ServerPass pass;
    const auto& records = per_server[s].records;
    pass.stats = sim::ComputeStats(records, sla_target, warmup_fraction);
    for (auto& ms : pass.stats.models) {
      ms.model = global_models[s][static_cast<std::size_t>(ms.model)];
    }
    const auto by_arrival = [&records](std::uint32_t a, std::uint32_t b) {
      return records[a].arrival < records[b].arrival;
    };
    if (!std::is_sorted(records.begin(), records.end(),
                        [](const sim::QueryRecord& a,
                           const sim::QueryRecord& b) {
                          return a.arrival < b.arrival;
                        })) {
      pass.perm.resize(records.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        pass.perm[i] = static_cast<std::uint32_t>(i);
      }
      std::stable_sort(pass.perm.begin(), pass.perm.end(), by_arrival);
    }
    return pass;
  });

  std::size_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t count = per_server[s].records.size();
    stats.per_server.push_back(std::move(passes[s].stats));
    stats.routed_per_server.push_back(count);
    total += count;
  }
  stats.routed_queries = total;
  if (total == 0) {
    stats.fault = fault;
    return stats;
  }

  // Same warmup cut the merged-copy oracle takes over the merged population.
  const std::size_t skip = static_cast<std::size_t>(
      warmup_fraction * static_cast<double>(total));

  int num_models = 0;
  for (const auto& models : global_models) {
    if (!models.empty()) num_models = std::max(num_models, models.back() + 1);
  }

  // Phase B: walk the merged population in the exact order the
  // merged-copy oracle's stable sort visits the merged vector -- ascending
  // arrival, ties by server then per-server position (each server's
  // block precedes the next's in the merged layout).  Only the
  // order-sensitive accumulators run here: the mean-latency sum, the
  // Welford queue-delay stream, and the per-model mean sums; everything
  // order-free stays in the parallel phases.
  //
  // The order itself almost never needs to be computed: arrival
  // processes are cumulative, so the source trace -- and therefore the
  // per-position server sequence recovered by scattering the global ids
  // -- is already arrival-sorted, up to cross-server ties on one arrival
  // tick, which a tiny pending group re-sorts in place.  The walk
  // verifies the assumption as it goes (arrivals must never step
  // backwards); an unsorted source trace falls back to rebuilding the
  // order with parallel pairwise merges of the per-server runs.
  std::vector<std::size_t> included_from(n, 0);  // per-server skip counts
  // Fault casualties past the cut: counted (ServerStats::failed/shed),
  // never sampled -- mirrors ComputeStats record for record.  excluded[s]
  // sizes server s's latency-pool slice in Phase C.
  std::vector<std::size_t> excluded(n, 0);
  std::size_t agg_failed = 0;
  std::size_t agg_shed = 0;
  double latency_sum = 0.0;
  StreamingStats queue_delay;
  std::vector<double> model_latency_sum;
  SimTime window_begin = 0;
  bool window_set = false;
  int first_model = 0;
  bool multi_model = false;

  struct Pending {
    std::uint32_t server;
    const sim::QueryRecord* rec;
  };
  // Walks seq (the server owning each merged position, arrival-ordered up
  // to ties); returns false on an arrival inversion (scatter order only).
  const auto walk = [&](const std::vector<std::uint32_t>& seq) {
    included_from.assign(n, 0);
    excluded.assign(n, 0);
    agg_failed = 0;
    agg_shed = 0;
    latency_sum = 0.0;
    queue_delay = StreamingStats();
    model_latency_sum.assign(static_cast<std::size_t>(num_models), 0.0);
    window_begin = 0;
    window_set = false;
    first_model = 0;
    multi_model = false;
    std::vector<std::size_t> cursor(n, 0);
    std::size_t out_idx = 0;
    const auto emit = [&](std::uint32_t s, const sim::QueryRecord& r) {
      if (out_idx < skip) {
        ++included_from[s];
        ++out_idx;
        return;
      }
      // The merged ComputeStats' multi-model pre-scan compares every post-cut
      // record's model to the one at the cut -- casualties included --
      // so the model bookkeeping runs before the casualty skip.
      const int gm = global_models[s][static_cast<std::size_t>(r.model)];
      if (out_idx == skip) {
        first_model = gm;
      } else if (gm != first_model) {
        multi_model = true;
      }
      ++out_idx;
      if (r.failed || r.shed) {
        if (r.failed) ++agg_failed;
        if (r.shed) ++agg_shed;
        ++excluded[s];
        return;
      }
      const double lat_ms = TicksToMs(r.Latency());
      latency_sum += lat_ms;
      queue_delay.Add(TicksToMs(r.QueueDelay()));
      model_latency_sum[static_cast<std::size_t>(gm)] += lat_ms;
      if (!window_set) {
        // First *completed* record past the cut, as in ComputeStats.
        window_begin = r.arrival;
        window_set = true;
      }
    };
    std::vector<Pending> group;
    SimTime group_arrival = 0;
    const auto flush = [&]() {
      if (group.size() > 1) {
        // Merged tie order on one arrival tick: server-major, then
        // per-server arrival position (already the push order).
        std::stable_sort(group.begin(), group.end(),
                         [](const Pending& a, const Pending& b) {
                           return a.server < b.server;
                         });
      }
      for (const Pending& p : group) emit(p.server, *p.rec);
      group.clear();
    };
    for (const std::uint32_t s : seq) {
      const auto& records = per_server[s].records;
      const sim::QueryRecord& r =
          RecordAt(records, passes[s].perm, cursor[s]++);
      if (!group.empty() && r.arrival != group_arrival) {
        if (r.arrival < group_arrival) return false;  // unsorted source
        flush();
      }
      group_arrival = r.arrival;
      group.push_back({s, &r});
    }
    flush();
    return true;
  };

  // Scatter pass: global ids are the trace positions, so writing each
  // server at its queries' positions recovers the source interleaving.
  std::vector<std::uint32_t> seq;
  bool walked = false;
  if (global_ids.size() == total && id_offsets.size() == n + 1) {
    constexpr std::uint32_t kUnset = ~std::uint32_t{0};
    seq.assign(total, kUnset);
    bool usable = true;
    for (std::size_t s = 0; s < n && usable; ++s) {
      const auto ids = GlobalIds(static_cast<int>(s));
      if (ids.size() != per_server[s].records.size()) {
        usable = false;
        break;
      }
      for (const std::uint64_t id : ids) {
        if (id >= total) {
          usable = false;
          break;
        }
        seq[id] = static_cast<std::uint32_t>(s);
      }
    }
    if (usable) {
      for (const std::uint32_t s : seq) {
        if (s == kUnset) {
          usable = false;  // ids were not a permutation of the positions
          break;
        }
      }
    }
    walked = usable && walk(seq);
  }

  if (!walked) {
    // Fallback: rebuild the merged order from the per-server runs with
    // pairwise std::merge rounds over (arrival, server) keys, parallel
    // across pairs.  Same-server ties keep their relative order through
    // every stable merge, so the walk's pending group is a no-op here.
    struct MergeKey {
      SimTime arrival;
      std::uint32_t server;
    };
    const auto key_less = [](const MergeKey& a, const MergeKey& b) {
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      return a.server < b.server;
    };
    std::vector<MergeKey> keys(total);
    std::vector<MergeKey> scratch(total);
    std::vector<std::size_t> run_offsets;
    run_offsets.reserve(n + 1);
    run_offsets.push_back(0);
    for (std::size_t s = 0; s < n; ++s) {
      run_offsets.push_back(run_offsets.back() +
                            per_server[s].records.size());
    }
    ParallelMap(n, jobs, [&](std::size_t s) {
      const auto& records = per_server[s].records;
      const auto& perm = passes[s].perm;
      MergeKey* out = keys.data() + run_offsets[s];
      for (std::size_t k = 0; k < records.size(); ++k) {
        out[k] = {RecordAt(records, perm, k).arrival,
                  static_cast<std::uint32_t>(s)};
      }
      return 0;
    });
    while (run_offsets.size() > 2) {
      const std::size_t runs = run_offsets.size() - 1;
      const std::size_t pairs = runs / 2;
      ParallelMap(pairs, jobs, [&](std::size_t p) {
        const auto lo = static_cast<std::ptrdiff_t>(run_offsets[2 * p]);
        const auto mid = static_cast<std::ptrdiff_t>(run_offsets[2 * p + 1]);
        const auto hi = static_cast<std::ptrdiff_t>(run_offsets[2 * p + 2]);
        std::merge(keys.begin() + lo, keys.begin() + mid, keys.begin() + mid,
                   keys.begin() + hi, scratch.begin() + lo, key_less);
        return 0;
      });
      if (runs % 2 != 0) {
        const auto tail = static_cast<std::ptrdiff_t>(run_offsets[runs - 1]);
        std::copy(keys.begin() + tail, keys.end(), scratch.begin() + tail);
      }
      std::vector<std::size_t> next_offsets;
      next_offsets.reserve(pairs + 2);
      for (std::size_t p = 0; p < pairs; ++p) {
        next_offsets.push_back(run_offsets[2 * p]);
      }
      if (runs % 2 != 0) next_offsets.push_back(run_offsets[runs - 1]);
      next_offsets.push_back(total);
      run_offsets = std::move(next_offsets);
      keys.swap(scratch);
    }
    seq.resize(total);
    for (std::size_t i = 0; i < total; ++i) seq[i] = keys[i].server;
    walked = walk(seq);
  }

  // Phase C (parallel): order-free extraction over each server's included
  // suffix -- the first included_from[s] records of its arrival order are
  // exactly the ones the fleet-level cut skipped (the merge walk consumes
  // each server's records in that order).  Latencies land unsorted in a
  // disjoint slice of one shared pool; the percentile selection below
  // does not care about sample order.
  std::size_t excluded_total = 0;
  for (const std::size_t e : excluded) excluded_total += e;
  const std::size_t included_total = total - skip - excluded_total;
  std::vector<double> latency_pool(included_total);
  std::vector<std::size_t> pool_at;
  pool_at.reserve(n);
  {
    std::size_t at = 0;
    for (std::size_t s = 0; s < n; ++s) {
      pool_at.push_back(at);
      at += per_server[s].records.size() - included_from[s] - excluded[s];
    }
  }
  auto extracts = ParallelMap(n, jobs, [&](std::size_t s) {
    ServerExtract e;
    const auto& records = per_server[s].records;
    const auto& perm = passes[s].perm;
    double* lat_out = latency_pool.data() + pool_at[s];
    if (multi_model) {
      const auto m = static_cast<std::size_t>(num_models);
      e.model_completed.assign(m, 0);
      e.model_violations.assign(m, 0);
      e.model_swaps_by_model.assign(m, 0);
      e.model_latency_ms.assign(m, {});
    }
    // (local worker index -> accumulators per distinct gpcs value); the
    // inner list is ~1 long, workers keep one size for a whole run.
    std::vector<std::vector<sim::WorkerStats>> variants;
    for (std::size_t k = included_from[s]; k < records.size(); ++k) {
      const sim::QueryRecord& r = RecordAt(records, perm, k);
      if (r.failed || r.shed) continue;  // counted in the walk, never sampled
      const double lat_ms = TicksToMs(r.Latency());
      *lat_out++ = lat_ms;
      if (r.Latency() > sla_target) ++e.violations;
      if (r.reconfig_stalls > 0) ++e.reconfig_stalled;
      if (r.model_swap) ++e.model_swaps;
      e.window_end = std::max(e.window_end, r.finished);
      const auto widx = static_cast<std::size_t>(r.worker);
      if (widx >= variants.size()) variants.resize(widx + 1);
      sim::WorkerStats* w = nullptr;
      for (auto& v : variants[widx]) {
        if (v.gpcs == r.worker_gpcs) {
          w = &v;
          break;
        }
      }
      if (w == nullptr) {
        sim::WorkerStats fresh;
        fresh.index = worker_base[s] + r.worker;
        fresh.gpcs = r.worker_gpcs;
        w = &variants[widx].emplace_back(fresh);
      }
      w->busy_ticks += r.finished - r.started;
      ++w->queries;
      if (multi_model) {
        const auto gm = static_cast<std::size_t>(
            global_models[s][static_cast<std::size_t>(r.model)]);
        ++e.model_completed[gm];
        if (r.Latency() > sla_target) ++e.model_violations[gm];
        if (r.model_swap) ++e.model_swaps_by_model[gm];
        e.model_latency_ms[gm].push_back(lat_ms);
      }
    }
    // Flatten in (index, gpcs) order -- with the server-major global index
    // offsets this reproduces the merged pass's fleet-wide worker-map key
    // order exactly.
    for (auto& v : variants) {
      std::sort(v.begin(), v.end(),
                [](const sim::WorkerStats& a, const sim::WorkerStats& b) {
                  return a.gpcs < b.gpcs;
                });
      for (const auto& w2 : v) e.workers.push_back(w2);
    }
    return e;
  });

  // Final assembly (serial, O(completed) for the percentile merge and
  // O(servers + workers + models) for everything else).
  sim::ServerStats& agg = stats.aggregate;
  agg.completed = included_total;
  agg.failed = agg_failed;
  agg.shed = agg_shed;
  stats.fault = fault;
  if (agg.completed == 0) {
    // Every post-cut record was a casualty: the merged ComputeStats bails
    // before any rate/percentile math, leaving only the counters set.
    return stats;
  }
  agg.mean_latency_ms =
      latency_sum / static_cast<double>(agg.completed);
  agg.mean_queue_delay_ms = queue_delay.mean();

  std::size_t violations = 0;
  SimTime window_end = 0;
  for (const ServerExtract& e : extracts) {
    violations += e.violations;
    agg.reconfig_stalled += e.reconfig_stalled;
    agg.model_swaps += e.model_swaps;
    window_end = std::max(window_end, e.window_end);
  }
  agg.sla_violation_rate = static_cast<double>(violations) /
                           static_cast<double>(agg.completed);

  // Exact fleet percentiles by selection over the shared latency pool:
  // the pool holds the same multiset the merged pass's sorted vector would,
  // and QuantileSelector reproduces Percentile's interpolation exactly.
  {
    QuantileSelector latency(std::move(latency_pool));
    agg.p50_latency_ms = latency.Value(50.0);
    agg.p95_latency_ms = latency.Value(95.0);
    agg.p99_latency_ms = latency.Value(99.0);
    agg.max_latency_ms = latency.Max();
  }

  const SimTime span = window_end - window_begin;
  if (span > 0) {
    agg.achieved_qps =
        static_cast<double>(agg.completed) / TicksToSec(span);
  }
  double gpc_busy = 0.0;
  double gpc_total = 0.0;
  for (ServerExtract& e : extracts) {
    for (sim::WorkerStats& w : e.workers) {
      if (span > 0) {
        w.utilization = std::min(
            1.0,
            static_cast<double>(w.busy_ticks) / static_cast<double>(span));
      }
      gpc_busy += w.utilization * w.gpcs;
      gpc_total += w.gpcs;
      agg.workers.push_back(w);
    }
  }
  if (span > 0 && gpc_total > 0.0) {
    agg.mean_worker_utilization = gpc_busy / gpc_total;
  }

  if (multi_model) {
    // Ascending model id == the merged pass's per-model map key order.
    std::vector<int> present;
    for (int m = 0; m < num_models; ++m) {
      for (const ServerExtract& e : extracts) {
        if (e.model_completed[static_cast<std::size_t>(m)] > 0) {
          present.push_back(m);
          break;
        }
      }
    }
    auto model_stats = ParallelMap(
        present.size(), jobs, [&](std::size_t i) {
          const auto m = static_cast<std::size_t>(present[i]);
          sim::ModelStats ms;
          ms.model = present[i];
          std::vector<double> samples;
          for (const ServerExtract& e : extracts) {
            ms.completed += e.model_completed[m];
            ms.swaps += e.model_swaps_by_model[m];
            samples.insert(samples.end(), e.model_latency_ms[m].begin(),
                           e.model_latency_ms[m].end());
            ms.sla_violation_rate +=
                static_cast<double>(e.model_violations[m]);
          }
          ms.mean_latency_ms =
              model_latency_sum[m] / static_cast<double>(ms.completed);
          QuantileSelector lat(std::move(samples));
          ms.p95_latency_ms = lat.Value(95.0);
          ms.p99_latency_ms = lat.Value(99.0);
          ms.sla_violation_rate /= static_cast<double>(ms.completed);
          return ms;
        });
    agg.models = std::move(model_stats);
  } else {
    // One model: its slice IS the aggregate.
    sim::ModelStats ms;
    ms.model = first_model;
    ms.completed = agg.completed;
    ms.mean_latency_ms = agg.mean_latency_ms;
    ms.p95_latency_ms = agg.p95_latency_ms;
    ms.p99_latency_ms = agg.p99_latency_ms;
    ms.sla_violation_rate = agg.sla_violation_rate;
    ms.swaps = agg.model_swaps;
    agg.models.push_back(std::move(ms));
  }
  return stats;
}

}  // namespace pe::fleet
