#include "fleet/failover.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "sched/scheduler.h"
#include "sim/server.h"

namespace pe::fleet {

namespace {

// Salt for the failover replica pick: distinct from the fault-schedule,
// server, and router stream domains.  The attempt number folds in so
// consecutive retries of one query spread over the healthy set instead
// of hammering a single replica.
constexpr std::uint64_t kFailoverSalt = 0xFA11BACCULL;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

// Merges possibly-overlapping [begin, end) windows into a disjoint
// ascending list.
std::vector<std::pair<SimTime, SimTime>> MergeWindows(
    std::vector<std::pair<SimTime, SimTime>> windows) {
  std::sort(windows.begin(), windows.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& w : windows) {
    if (w.second <= w.first) continue;
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace

HealthView::HealthView(const FaultPlan& plan, int num_servers) {
  down_.resize(static_cast<std::size_t>(num_servers));
  std::vector<std::pair<SimTime, SimTime>> incident_windows;
  // Open crash windows per server, open worker windows per (server,
  // worker), open slowdown windows per server -- closed by the matching
  // recover/end event, or at +inf (never healed).
  std::vector<SimTime> open_crash(static_cast<std::size_t>(num_servers), -1);
  std::map<std::pair<int, int>, SimTime> open_worker;
  std::vector<SimTime> open_slow(static_cast<std::size_t>(num_servers), -1);
  for (const FaultEvent& ev : plan.events) {
    const auto s = static_cast<std::size_t>(ev.server);
    switch (ev.kind) {
      case FaultKind::kServerCrash:
        if (open_crash[s] < 0) open_crash[s] = ev.time;
        break;
      case FaultKind::kServerRecover:
        if (open_crash[s] >= 0) {
          down_[s].push_back({open_crash[s], ev.time});
          incident_windows.push_back({open_crash[s], ev.time});
          open_crash[s] = -1;
        }
        break;
      case FaultKind::kWorkerFail: {
        const auto key = std::make_pair(ev.server, ev.worker);
        if (open_worker.find(key) == open_worker.end()) {
          open_worker[key] = ev.time;
        }
        break;
      }
      case FaultKind::kWorkerRecover: {
        const auto it = open_worker.find({ev.server, ev.worker});
        if (it != open_worker.end()) {
          incident_windows.push_back({it->second, ev.time});
          open_worker.erase(it);
        }
        break;
      }
      case FaultKind::kSlowdownBegin:
        if (open_slow[s] < 0) open_slow[s] = ev.time;
        break;
      case FaultKind::kSlowdownEnd:
        if (open_slow[s] >= 0) {
          incident_windows.push_back({open_slow[s], ev.time});
          open_slow[s] = -1;
        }
        break;
    }
  }
  for (std::size_t s = 0; s < down_.size(); ++s) {
    if (open_crash[s] >= 0) {
      down_[s].push_back({open_crash[s], kForever});
      incident_windows.push_back({open_crash[s], kForever});
    }
    if (open_slow[s] >= 0) {
      incident_windows.push_back({open_slow[s], kForever});
    }
  }
  for (const auto& [key, begin] : open_worker) {
    incident_windows.push_back({begin, kForever});
  }
  for (auto& windows : down_) windows = MergeWindows(std::move(windows));
  incidents_ = MergeWindows(std::move(incident_windows));
}

bool HealthView::IsUp(int server, SimTime t) const {
  const auto& windows = down_[static_cast<std::size_t>(server)];
  // First window with begin > t; the previous one is the only candidate.
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](SimTime v, const std::pair<SimTime, SimTime>& w) {
        return v < w.first;
      });
  if (it == windows.begin()) return true;
  --it;
  return t >= it->second;
}

SimTime HealthView::DownTicks(int server, SimTime horizon) const {
  SimTime ticks = 0;
  for (const auto& w : down_[static_cast<std::size_t>(server)]) {
    const SimTime begin = std::min(w.first, horizon);
    const SimTime end = std::min(w.second, horizon);
    ticks += end - begin;
  }
  return ticks;
}

bool HealthView::InIncident(SimTime t) const {
  auto it = std::upper_bound(
      incidents_.begin(), incidents_.end(), t,
      [](SimTime v, const std::pair<SimTime, SimTime>& w) {
        return v < w.first;
      });
  if (it == incidents_.begin()) return false;
  --it;
  return t < it->second;
}

FleetResult SimulateWithFaults(const Cluster& cluster,
                               const workload::QueryTrace& trace,
                               const FaultPlan& plan, int jobs,
                               const ReplanFn& replan) {
  // The identity contract: no faults, no driver -- the batch path runs
  // unchanged, record for record.
  if (plan.empty()) return cluster.Simulate(trace, jobs);

  const PlacementMap& placement = cluster.placement();
  plan.Validate(placement);
  const int n = placement.num_servers();
  const auto nn = static_cast<std::size_t>(n);
  const std::size_t total = trace.size();
  HealthView health(plan, n);

  FaultSummary fault;
  fault.faulted = true;
  fault.injected = total;

  // ---- Stage 1: route, then patch around planned downtime. -------------
  const auto router = cluster.MakeFleetRouter();
  std::vector<int> assignment = router->RouteAll(trace, jobs);
  std::vector<bool> driver_shed(total, false);
  std::vector<bool> driver_failed(total, false);
  const std::vector<workload::Query>& queries = trace.queries();
  std::vector<int> healthy;
  for (std::size_t i = 0; i < total; ++i) {
    const workload::Query& q = queries[i];
    const int s = assignment[i];
    if (health.IsUp(s, q.arrival)) continue;
    healthy.clear();
    for (const int r : placement.Replicas(q.model_id)) {
      if (health.IsUp(r, q.arrival)) healthy.push_back(r);
    }
    if (healthy.empty()) {
      assignment[i] = -1;  // pre-shed: nobody can take it
      driver_shed[i] = true;
      continue;
    }
    const std::uint64_t h = Mix64(q.id ^ Mix64(kFailoverSalt));
    assignment[i] = healthy[static_cast<std::size_t>(h % healthy.size())];
    ++fault.rerouted;
  }
  TraceSplit split = SplitByAssignment(trace, assignment, placement);
  assignment = std::vector<int>();

  // ---- Stage 2: build the engines (incremental mode). ------------------
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers(nn);
  std::vector<std::unique_ptr<sim::InferenceServer>> engines(nn);
  for (int s = 0; s < n; ++s) {
    sim::ServerConfig sc = cluster.MakeServerConfig(s);
    sc.deadline = plan.deadline;  // per-attempt queue-staleness shed
    const auto i = static_cast<std::size_t>(s);
    schedulers[i] = cluster.MakeScheduler(s);
    engines[i] = std::make_unique<sim::InferenceServer>(
        sc, cluster.server_repertoire(s), *schedulers[i]);
  }
  ParallelMap(nn, jobs, [&](std::size_t s) {
    engines[s]->InjectSpan(split.Server(static_cast<int>(s)));
    return 0;
  });
  // Every query now lives in its engine's record; only the id map stays.
  split.arena = std::vector<workload::Query>();

  // Local id -> global id per server: the split's span, then a tail of
  // retry attempts (local ids past the span, in injection order).
  std::vector<std::vector<std::uint64_t>> retry_gids(nn);
  const auto global_id = [&](int s, std::uint64_t local) {
    const auto span = split.GlobalIds(s);
    return local < span.size()
               ? span[local]
               : retry_gids[static_cast<std::size_t>(s)][local - span.size()];
  };

  // ---- Stage 3: the epoch loop. ----------------------------------------
  // Advance every engine (parallel, one task per engine -- disjoint
  // state, so --jobs cannot change anything) to the next fault or retry
  // instant, then apply that instant's faults and injections serially in
  // schedule order.
  std::vector<int> retries_done(total, 0);
  std::vector<bool> crashed(nn, false);
  std::vector<std::vector<int>> layouts(nn);
  std::vector<std::vector<int>> original_layouts(nn);
  for (int s = 0; s < n; ++s) {
    layouts[static_cast<std::size_t>(s)] =
        placement.server(s).partition_gpcs;
    original_layouts[static_cast<std::size_t>(s)] =
        layouts[static_cast<std::size_t>(s)];
  }

  struct Retry {
    int server;
    std::uint64_t gid;
  };
  std::map<SimTime, std::vector<Retry>> pending;

  // A lost attempt comes home: retry on a healthy replica, or classify.
  const auto lose = [&](int from_server, SimTime t,
                        const std::vector<workload::Query>& removed) {
    for (const workload::Query& q : removed) {
      const std::uint64_t gid = global_id(from_server, q.id);
      if (retries_done[gid] >= plan.max_retries) {
        driver_failed[gid] = true;
        continue;
      }
      const int attempt = ++retries_done[gid];
      const SimTime retry_time = t + plan.RetryDelay(attempt);
      const workload::Query& orig = queries[gid];
      if (plan.deadline > 0 && retry_time - orig.arrival > plan.deadline) {
        driver_shed[gid] = true;  // cannot finish in time; drop, don't churn
        continue;
      }
      healthy.clear();
      for (const int r : placement.Replicas(orig.model_id)) {
        if (health.IsUp(r, retry_time)) healthy.push_back(r);
      }
      if (healthy.empty()) {
        driver_shed[gid] = true;
        continue;
      }
      const std::uint64_t h = Mix64(
          gid ^ Mix64(kFailoverSalt + static_cast<std::uint64_t>(attempt)));
      const int pick = healthy[static_cast<std::size_t>(h % healthy.size())];
      if (pick != from_server) ++fault.rerouted;
      ++fault.retried;
      pending[retry_time].push_back({pick, gid});
    }
  };

  const auto crash_server = [&](int s, SimTime t) {
    auto& engine = *engines[static_cast<std::size_t>(s)];
    std::vector<workload::Query> removed;
    for (int w = 0; w < engine.num_workers(); ++w) {
      auto r = engine.FailWorker(w, /*requeue_orphans=*/false);
      removed.insert(removed.end(), r.begin(), r.end());
    }
    auto parked = engine.FailCentralQueue();
    removed.insert(removed.end(), parked.begin(), parked.end());
    lose(s, t, removed);
  };

  const auto do_repartition = [&](SimTime t) {
    if (!plan.repartition || !replan) return;
    std::vector<int> down;
    std::vector<bool> impacted_model;
    for (int s = 0; s < n; ++s) {
      if (!crashed[static_cast<std::size_t>(s)]) continue;
      down.push_back(s);
      for (const int m : placement.server(s).model_ids) {
        if (static_cast<std::size_t>(m) >= impacted_model.size()) {
          impacted_model.resize(static_cast<std::size_t>(m) + 1, false);
        }
        impacted_model[static_cast<std::size_t>(m)] = true;
      }
    }
    for (int v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (crashed[vi]) continue;
      bool shares = false;
      for (const int m : placement.server(v).model_ids) {
        if (static_cast<std::size_t>(m) < impacted_model.size() &&
            impacted_model[static_cast<std::size_t>(m)]) {
          shares = true;
          break;
        }
      }
      // Re-plan when the server absorbs a dead peer's traffic, or when a
      // recovery lets a previously-degraded layout relax back.
      if (!shares && layouts[vi] == original_layouts[vi]) continue;
      std::vector<int> layout = replan(v, down);
      if (layout.empty() || layout == layouts[vi]) continue;
      engines[vi]->BeginReconfigure(layout, plan.reconfig_downtime);
      layouts[vi] = std::move(layout);
      ++fault.repartitions;
    }
    // Front-tier notification: routing for this run is already fixed
    // (health-patched up front), but the router's cost tables must track
    // the layout edits -- the hook is the documented contract for any
    // placement mutation.
    router->OnPlacementChange();
    (void)t;
  };

  // A live reconfiguration rebuilds the worker set and wipes failure
  // marks (BuildWorkers); a crashed server whose pre-crash repartition
  // completes mid-epoch would silently resurrect.  Re-assert the crash
  // after every advance: abort whatever restarted and keep the marks.
  const auto enforce_crashes = [&](SimTime t) {
    for (int s = 0; s < n; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (!crashed[si]) continue;
      auto& engine = *engines[si];
      if (engine.num_failed_workers() < engine.num_workers()) {
        crash_server(s, t);
      }
    }
  };

  std::size_t fe = 0;
  SimTime last_applied = 0;
  while (fe < plan.events.size() || !pending.empty()) {
    SimTime t = kForever;
    if (fe < plan.events.size()) t = plan.events[fe].time;
    if (!pending.empty()) t = std::min(t, pending.begin()->first);
    ParallelMap(nn, jobs, [&](std::size_t s) {
      engines[s]->AdvanceTo(t);
      return 0;
    });
    enforce_crashes(t);
    while (fe < plan.events.size() && plan.events[fe].time == t) {
      const FaultEvent& ev = plan.events[fe++];
      const auto si = static_cast<std::size_t>(ev.server);
      auto& engine = *engines[si];
      ++fault.incidents;
      switch (ev.kind) {
        case FaultKind::kServerCrash:
          if (crashed[si]) break;
          crashed[si] = true;
          crash_server(ev.server, t);
          do_repartition(t);
          break;
        case FaultKind::kServerRecover:
          if (!crashed[si]) break;
          crashed[si] = false;
          for (int w = 0; w < engine.num_workers(); ++w) {
            engine.RecoverWorker(w);
          }
          do_repartition(t);
          break;
        case FaultKind::kWorkerFail: {
          if (crashed[si]) break;  // the crash already owns every worker
          if (ev.worker >= engine.num_workers()) break;  // layout shrank
          lose(ev.server, t, engine.FailWorker(ev.worker,
                                               /*requeue_orphans=*/true));
          break;
        }
        case FaultKind::kWorkerRecover:
          if (crashed[si]) break;
          if (ev.worker >= engine.num_workers()) break;
          engine.RecoverWorker(ev.worker);
          break;
        case FaultKind::kSlowdownBegin:
          engine.SetSlowdownFactor(ev.factor);
          break;
        case FaultKind::kSlowdownEnd:
          engine.SetSlowdownFactor(1.0);
          break;
      }
    }
    const auto due = pending.find(t);
    if (due != pending.end()) {
      for (const Retry& r : due->second) {
        const auto si = static_cast<std::size_t>(r.server);
        const workload::Query& orig = queries[r.gid];
        workload::Query q;
        q.id = split.GlobalIds(r.server).size() + retry_gids[si].size();
        q.arrival = t;
        q.batch = orig.batch;
        q.model_id = placement.LocalModel(r.server, orig.model_id);
        assert(q.model_id >= 0);
        engines[si]->InjectQuery(q);
        retry_gids[si].push_back(r.gid);
      }
      pending.erase(due);
    }
    last_applied = t;
  }

  // ---- Stage 4: drain and assemble. ------------------------------------
  auto results = ParallelMap(nn, jobs, [&](std::size_t s) {
    return engines[s]->Finish();
  });

  FleetResult result;
  result.per_server = std::move(results);
  result.id_offsets.assign(nn + 1, 0);
  for (std::size_t s = 0; s < nn; ++s) {
    result.id_offsets[s + 1] = result.id_offsets[s] +
                               split.GlobalIds(static_cast<int>(s)).size() +
                               retry_gids[s].size();
  }
  result.global_ids.reserve(result.id_offsets.back());
  for (std::size_t s = 0; s < nn; ++s) {
    const auto span = split.GlobalIds(static_cast<int>(s));
    result.global_ids.insert(result.global_ids.end(), span.begin(),
                             span.end());
    result.global_ids.insert(result.global_ids.end(), retry_gids[s].begin(),
                             retry_gids[s].end());
  }
  split = TraceSplit();
  cluster.FillGlobalTables(result);

  // ---- Stage 5: terminal classification + incident metrics. ------------
  std::vector<bool> any_completed(total, false);
  std::vector<bool> any_failed(total, false);
  std::vector<bool> any_shed(total, false);
  SimTime makespan = last_applied == kForever ? 0 : last_applied;
  Percentile incident_latency;
  for (std::size_t s = 0; s < nn; ++s) {
    const auto gids = result.GlobalIds(static_cast<int>(s));
    for (const sim::QueryRecord& r : result.per_server[s].records) {
      const std::uint64_t gid = gids[r.id];
      makespan = std::max(makespan, r.finished);
      if (!r.failed && !r.shed) {
        any_completed[gid] = true;
        if (health.InIncident(r.finished)) {
          incident_latency.Add(TicksToMs(r.Latency()));
          ++fault.incident_completions;
        }
      } else if (r.failed) {
        any_failed[gid] = true;
      } else {
        any_shed[gid] = true;
      }
    }
  }
  for (std::size_t gid = 0; gid < total; ++gid) {
    if (any_completed[gid]) {
      ++fault.completed;
    } else if (driver_failed[gid]) {
      ++fault.failed;
    } else if (driver_shed[gid] || any_shed[gid]) {
      ++fault.shed;
    } else if (any_failed[gid]) {
      // No retry path saw it (e.g. parked work that died at Finish).
      ++fault.failed;
    } else {
      // Unreachable by construction -- every gid either produced records
      // or was pre-shed -- but classify conservatively rather than lose
      // the conservation invariant.
      ++fault.shed;
    }
  }
  assert(fault.completed + fault.failed + fault.shed == fault.injected);
  fault.makespan = makespan;
  fault.availability.reserve(nn);
  for (int s = 0; s < n; ++s) {
    if (makespan > 0) {
      const double down_frac =
          static_cast<double>(health.DownTicks(s, makespan)) /
          static_cast<double>(makespan);
      fault.availability.push_back(1.0 - down_frac);
    } else {
      fault.availability.push_back(1.0);
    }
  }
  if (fault.incident_completions > 0) {
    fault.p99_incident_ms = incident_latency.P99();
  }
  result.fault = fault;
  return result;
}

}  // namespace pe::fleet
