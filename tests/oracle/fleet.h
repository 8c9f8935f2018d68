// Fleet-tier oracles: the per-query split, the merged-copy stats, and a
// per-server replay on the naive engine.  Each is the plain,
// obviously-correct form of a production fast path in src/fleet/, and
// the fleet tests pin the production output against it record by record
// and field by field.
#pragma once

#include "common/sim_time.h"
#include "fleet/cluster.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "workload/trace.h"

namespace pe::oracle {

// fleet::SplitTrace the slow way: one virtual Route() call per query into
// growing per-server buckets with a lower_bound model remap, packed into
// the TraceSplit arena layout at the end.  Throws std::logic_error on a
// bad server id or a destination not hosting the query's model.
fleet::TraceSplit SplitPerQuery(const workload::QueryTrace& trace,
                                fleet::Router& router,
                                const fleet::PlacementMap& placement);

// fleet::FleetResult::Stats the slow way, never calling sim::ComputeStats:
// every record deep-copied into one merged vector, re-keyed to global
// model ids and fleet-unique worker indices, then one naive stats pass
// over it -- a full stable sort by arrival, the first floor(warmup * n)
// records cut, std::map accumulators per worker and per model, fully
// sorted percentiles, and means as exact int64 tick sums.  Per-server
// stats come from the same naive pass over each server's records.
fleet::FleetStats MergedCopyStats(const fleet::FleetResult& result,
                                  SimTime sla_target,
                                  double warmup_fraction = 0.1);

// fleet::Cluster::SimulateSplit on the naive engine: server by server,
// each with the cluster's own ServerConfig and scheduler
// (Cluster::MakeServerConfig / MakeScheduler) over its local repertoire.
fleet::FleetResult ReplayFleet(const fleet::Cluster& cluster,
                               const fleet::TraceSplit& split);

// Route (SplitPerQuery with a fresh cluster router) + ReplayFleet.
fleet::FleetResult ReplayFleet(const fleet::Cluster& cluster,
                               const workload::QueryTrace& trace);

}  // namespace pe::oracle
