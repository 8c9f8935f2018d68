// The simulator's run configuration and result types, split from
// sim/server.h so callers that only build configs or read records need
// none of the engine's internals.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "sim/metrics.h"

namespace pe::sim {

// Ground truth: actual execution latency of (partition gpcs, batch).
// Alias of the repertoire's per-model function type.
using LatencyFn = profile::LatencyFn;

struct FrontendConfig {
  bool enabled = false;
  // Parallel preprocessing lanes (the paper's host has 96 vCPUs).
  int lanes = 96;
  // Deterministic per-query preprocessing cost.
  SimTime cost_per_query = UsToTicks(500.0);
};

struct ServerConfig {
  // One worker per element; the multiset of GPU partition sizes.
  std::vector<int> partition_gpcs;
  // SLA target for bookkeeping (violation rate in stats).
  SimTime sla_target = 0;
  // Log-normal multiplicative execution-time noise (sigma in log space);
  // 0 disables noise and makes runs fully deterministic.
  double latency_noise_sigma = 0.0;
  std::uint64_t seed = 0x5EED;
  FrontendConfig frontend;
  // Charged on top of a query's execution time when its start displaces a
  // different resident model on the partition (weight re-load / context
  // switch).  0 (the default) models free swaps; single-model runs never
  // swap, so the knob cannot perturb them either way.
  SimTime model_swap_cost = 0;
  // Per-query start deadline, relative to the query's (local) arrival; a
  // query whose head-of-queue turn comes more than `deadline` ticks after
  // it arrived is dropped (QueryRecord::shed) instead of started.  0 (the
  // default) disables shedding entirely -- no code path changes, so
  // deadline-free runs are bit-identical to the pre-fault engine.
  SimTime deadline = 0;
};

struct SimResult {
  std::vector<QueryRecord> records;
  ServerStats Stats(SimTime sla_target, double warmup_fraction = 0.1) const {
    return ComputeStats(records, sla_target, warmup_fraction);
  }
};

}  // namespace pe::sim
