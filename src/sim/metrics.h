// Per-query records and aggregate server statistics.
//
// The paper's headline metrics are 95th-percentile tail latency (Fig. 11)
// and latency-bounded throughput (Fig. 12); we additionally track SLA
// violation rate, queueing delay, and per-worker utilization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/sim_time.h"

namespace pe::sim {

struct QueryRecord {
  std::uint64_t id = 0;
  int batch = 1;
  // Model identity (repertoire id); 0 for single-model runs.
  int model = 0;
  SimTime arrival = 0;     // enters the server
  SimTime dispatched = 0;  // bound to a worker (== arrival unless queued)
  SimTime started = 0;     // execution begins on the GPU partition
  SimTime finished = 0;    // execution completes
  int worker = -1;
  int worker_gpcs = 0;
  // True when starting this query displaced a different resident model on
  // its partition (the server charged the model-swap penalty, if any).
  bool model_swap = false;
  // Number of live-reconfiguration windows this query waited through while
  // queued (held at arrival, already central-queued, or orphaned from a
  // retired partition's local queue).  0 in any run without
  // reconfigurations; the downtime itself lands in QueueDelay().
  int reconfig_stalls = 0;
  // Fault outcome of this attempt.  `failed`: the query was on a worker
  // (or held by a server) that failed before completing it -- `finished`
  // holds the failure instant, not a completion.  `shed`: the per-query
  // deadline expired before the query could start, so the server dropped
  // it.  Both are excluded from latency statistics and tallied separately
  // (ServerStats::failed / shed).  Always false without fault injection.
  bool failed = false;
  bool shed = false;
  // Times this query was re-placed because of a fault: local re-queues
  // after a worker failure, plus (for fleet re-injections) the attempt
  // number the failover driver stamped on this record.
  int retries = 0;

  SimTime Latency() const { return finished - arrival; }
  SimTime QueueDelay() const { return started - arrival; }
};

struct WorkerStats {
  int index = 0;
  int gpcs = 0;
  SimTime busy_ticks = 0;
  std::uint64_t queries = 0;
  double utilization = 0.0;  // busy fraction of the measured span
};

// Per-model slice of a (possibly mixed-traffic) run.
struct ModelStats {
  int model = 0;
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double sla_violation_rate = 0.0;
  // Completions whose start displaced a different resident model.
  std::size_t swaps = 0;
};

struct ServerStats {
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double mean_queue_delay_ms = 0.0;
  double sla_violation_rate = 0.0;  // fraction with latency > SLA target
  double achieved_qps = 0.0;        // completions / measured span
  double mean_worker_utilization = 0.0;  // GPC-weighted busy fraction
  // Queries (among the included records) whose queueing was prolonged by
  // at least one live reconfiguration (QueryRecord::reconfig_stalls > 0):
  // the queue-build-up transient a layout swap causes.
  std::size_t reconfig_stalled = 0;
  // Starts (among the included records) that displaced a different
  // resident model on their partition -- the cross-model interference a
  // consolidated multi-model layout pays for sharing partitions.
  std::size_t model_swaps = 0;
  // Fault casualties among the included records: attempts killed by a
  // worker/server failure and queries dropped on deadline expiry.  Both
  // are excluded from every latency/throughput/utilization figure above
  // (their sentinel timestamps would poison the percentiles); `completed`
  // counts only genuine completions.  Zero without fault injection.
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::vector<WorkerStats> workers;
  // One entry per model id seen in the included records, ascending; a
  // single entry (model 0) for single-model runs.
  std::vector<ModelStats> models;
};

// A mergeable statistics fold: the records folded in, in any order and
// split across any number of folds merged in any order, decide the
// result.  Every accumulator is order-free: counters and exact `int64`
// tick sums for the means, min/max for the measurement window, and the
// latency samples per model, whose percentiles are read by selection.
// Finish() is the one routine that turns accumulated records into
// ServerStats; ComputeStats and the fleet aggregate both end in it.
class StatsFold {
 public:
  explicit StatsFold(SimTime sla_target) : sla_target_(sla_target) {}

  // Folds one record, keyed under model id `model` and worker index
  // `worker`: the record's own ids for one server, fleet-wide ids for a
  // fleet aggregate.  Failed and shed records are counted, never sampled.
  // Throws std::logic_error on a completed record with a negative id.
  void Add(const QueryRecord& r, int model, int worker);
  void Add(const QueryRecord& r) { Add(r, r.model, r.worker); }

  // Folds in every record `other` holds.
  void Merge(StatsFold&& other);

  //  * Means (latency, queue delay, per model) are the exact tick sum
  //    over the completions, converted to ms once and divided by their
  //    count: TicksToMs(sum) / completed.
  //  * Percentiles follow SelectPercentiles; max is the 100th.
  //  * Rates and utilizations are measured over the span from the
  //    earliest completed arrival to the latest completion; a span of
  //    zero ticks (a single record, a reconfig-dominated epoch slice)
  //    leaves them at zero instead of dividing by it.
  //  * workers: one entry per (index, gpcs), ascending -- a live
  //    reconfiguration reuses indices for differently-sized partitions.
  //  * models: one entry per model with completions, ascending; when every
  //    folded record (casualties included) has one model, that entry
  //    copies the aggregate.
  ServerStats Finish() &&;

 private:
  struct ModelAccum {
    std::size_t completed = 0;
    std::size_t violations = 0;
    std::size_t swaps = 0;
    SimTime latency_ticks = 0;
    std::vector<double> latency_ms;
  };

  SimTime sla_target_;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t shed_ = 0;
  std::size_t violations_ = 0;
  std::size_t reconfig_stalled_ = 0;
  std::size_t model_swaps_ = 0;
  SimTime latency_ticks_ = 0;
  SimTime queue_ticks_ = 0;
  // Earliest completed arrival.
  SimTime window_begin_ = std::numeric_limits<SimTime>::max();
  SimTime window_end_ = 0;    // latest completion
  // Over every folded record, casualties included.
  int min_model_ = std::numeric_limits<int>::max();
  int max_model_ = std::numeric_limits<int>::min();
  // Indexed by worker index; one entry per distinct gpcs (almost always
  // one: only a reconfiguration resizes an index).
  std::vector<std::vector<WorkerStats>> workers_;
  std::vector<ModelAccum> models_;  // indexed by model id
};

// Records cut as warm-up from the front of `n` arrival-ordered records:
// floor(warmup_fraction * n).
std::size_t WarmupSkip(std::size_t n, double warmup_fraction);

// The stable arrival order of `records`: empty when they already are
// arrival-sorted (the identity), else the positions stable-sorted by
// arrival, so equal arrivals keep their input order.
std::vector<std::uint32_t> ArrivalOrder(
    const std::vector<QueryRecord>& records);

// Aggregates records into ServerStats: the first
// WarmupSkip(records.size(), warmup_fraction) records in stable arrival
// order are cut (cold-start transients), the rest go through one
// StatsFold.  `sla_target` is the latency bound of the violation rates.
ServerStats ComputeStats(const std::vector<QueryRecord>& records,
                         SimTime sla_target, double warmup_fraction = 0.1);

}  // namespace pe::sim
