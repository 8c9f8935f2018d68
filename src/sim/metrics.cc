#include "sim/metrics.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/stats.h"

namespace pe::sim {
namespace {

double MeanMs(SimTime sum_ticks, std::size_t count) {
  return TicksToMs(sum_ticks) / static_cast<double>(count);
}

}  // namespace

void StatsFold::Add(const QueryRecord& r, int model, int worker) {
  min_model_ = std::min(min_model_, model);
  max_model_ = std::max(max_model_, model);
  if (r.failed || r.shed) {
    // Fault casualties never completed; their timestamps mark the
    // failure/shed instant and must stay out of every latency pool.
    if (r.failed) ++failed_;
    if (r.shed) ++shed_;
    return;
  }
  if (model < 0 || worker < 0) {
    throw std::logic_error(
        "StatsFold: a completed record needs a model and a worker");
  }
  const bool violated = r.Latency() > sla_target_;
  window_begin_ = std::min(window_begin_, r.arrival);
  window_end_ = std::max(window_end_, r.finished);
  ++completed_;
  if (violated) ++violations_;
  if (r.reconfig_stalls > 0) ++reconfig_stalled_;
  if (r.model_swap) ++model_swaps_;
  latency_ticks_ += r.Latency();
  queue_ticks_ += r.QueueDelay();

  const auto w = static_cast<std::size_t>(worker);
  if (w >= workers_.size()) workers_.resize(w + 1);
  auto& variants = workers_[w];
  auto it = std::find_if(
      variants.begin(), variants.end(),
      [&](const WorkerStats& v) { return v.gpcs == r.worker_gpcs; });
  if (it == variants.end()) {
    it = variants.insert(variants.end(),
                         WorkerStats{worker, r.worker_gpcs, 0, 0, 0.0});
  }
  it->busy_ticks += r.finished - r.started;
  ++it->queries;

  const auto m = static_cast<std::size_t>(model);
  if (m >= models_.size()) models_.resize(m + 1);
  ModelAccum& acc = models_[m];
  ++acc.completed;
  if (violated) ++acc.violations;
  if (r.model_swap) ++acc.swaps;
  acc.latency_ticks += r.Latency();
  acc.latency_ms.push_back(TicksToMs(r.Latency()));
}

void StatsFold::Merge(StatsFold&& other) {
  assert(sla_target_ == other.sla_target_);
  min_model_ = std::min(min_model_, other.min_model_);
  max_model_ = std::max(max_model_, other.max_model_);
  window_begin_ = std::min(window_begin_, other.window_begin_);
  window_end_ = std::max(window_end_, other.window_end_);
  completed_ += other.completed_;
  failed_ += other.failed_;
  shed_ += other.shed_;
  violations_ += other.violations_;
  reconfig_stalled_ += other.reconfig_stalled_;
  model_swaps_ += other.model_swaps_;
  latency_ticks_ += other.latency_ticks_;
  queue_ticks_ += other.queue_ticks_;

  if (other.workers_.size() > workers_.size()) {
    workers_.resize(other.workers_.size());
  }
  for (std::size_t i = 0; i < other.workers_.size(); ++i) {
    for (const WorkerStats& v : other.workers_[i]) {
      auto it = std::find_if(
          workers_[i].begin(), workers_[i].end(),
          [&](const WorkerStats& mine) { return mine.gpcs == v.gpcs; });
      if (it == workers_[i].end()) {
        workers_[i].push_back(v);
      } else {
        it->busy_ticks += v.busy_ticks;
        it->queries += v.queries;
      }
    }
  }
  if (other.models_.size() > models_.size()) {
    models_.resize(other.models_.size());
  }
  for (std::size_t m = 0; m < other.models_.size(); ++m) {
    ModelAccum& mine = models_[m];
    ModelAccum& theirs = other.models_[m];
    mine.completed += theirs.completed;
    mine.violations += theirs.violations;
    mine.swaps += theirs.swaps;
    mine.latency_ticks += theirs.latency_ticks;
    if (mine.latency_ms.empty()) {
      mine.latency_ms = std::move(theirs.latency_ms);
    } else {
      mine.latency_ms.insert(mine.latency_ms.end(), theirs.latency_ms.begin(),
                             theirs.latency_ms.end());
    }
  }
}

ServerStats StatsFold::Finish() && {
  ServerStats stats;
  stats.failed = failed_;
  stats.shed = shed_;
  if (completed_ == 0) return stats;
  stats.completed = completed_;
  stats.reconfig_stalled = reconfig_stalled_;
  stats.model_swaps = model_swaps_;
  stats.mean_latency_ms = MeanMs(latency_ticks_, completed_);
  stats.mean_queue_delay_ms = MeanMs(queue_ticks_, completed_);
  stats.sla_violation_rate =
      static_cast<double>(violations_) / static_cast<double>(completed_);

  // Per-model slices first: their pools then concatenate into the
  // aggregate pool (one model's pool simply is the aggregate pool).
  const bool multi_model = min_model_ != max_model_;
  std::vector<double> pool;
  if (multi_model) {
    pool.reserve(completed_);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelAccum& acc = models_[m];
      if (acc.completed == 0) continue;
      const auto q = SelectPercentiles(acc.latency_ms, {95.0, 99.0});
      ModelStats ms;
      ms.model = static_cast<int>(m);
      ms.completed = acc.completed;
      ms.mean_latency_ms = MeanMs(acc.latency_ticks, acc.completed);
      ms.p95_latency_ms = q[0];
      ms.p99_latency_ms = q[1];
      ms.sla_violation_rate = static_cast<double>(acc.violations) /
                              static_cast<double>(acc.completed);
      ms.swaps = acc.swaps;
      stats.models.push_back(ms);
      pool.insert(pool.end(), acc.latency_ms.begin(), acc.latency_ms.end());
      std::vector<double>().swap(acc.latency_ms);
    }
  } else {
    pool = std::move(models_[static_cast<std::size_t>(min_model_)].latency_ms);
  }
  const auto q = SelectPercentiles(pool, {50.0, 95.0, 99.0, 100.0});
  stats.p50_latency_ms = q[0];
  stats.p95_latency_ms = q[1];
  stats.p99_latency_ms = q[2];
  stats.max_latency_ms = q[3];
  if (!multi_model) {
    ModelStats ms;
    ms.model = min_model_;
    ms.completed = stats.completed;
    ms.mean_latency_ms = stats.mean_latency_ms;
    ms.p95_latency_ms = stats.p95_latency_ms;
    ms.p99_latency_ms = stats.p99_latency_ms;
    ms.sla_violation_rate = stats.sla_violation_rate;
    ms.swaps = stats.model_swaps;
    stats.models.push_back(ms);
  }

  const SimTime span = window_end_ - window_begin_;
  if (span > 0) {
    stats.achieved_qps =
        static_cast<double>(stats.completed) / TicksToSec(span);
  }
  double gpc_busy = 0.0;
  double gpc_total = 0.0;
  for (auto& variants : workers_) {
    std::sort(variants.begin(), variants.end(),
              [](const WorkerStats& a, const WorkerStats& b) {
                return a.gpcs < b.gpcs;
              });
    for (WorkerStats& w : variants) {
      if (span > 0) {
        w.utilization = std::min(1.0, static_cast<double>(w.busy_ticks) /
                                          static_cast<double>(span));
      }
      gpc_busy += w.utilization * w.gpcs;
      gpc_total += w.gpcs;
      stats.workers.push_back(w);
    }
  }
  if (span > 0 && gpc_total > 0.0) {
    stats.mean_worker_utilization = gpc_busy / gpc_total;
  }
  return stats;
}

std::size_t WarmupSkip(std::size_t n, double warmup_fraction) {
  assert(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
  return std::min(
      n, static_cast<std::size_t>(warmup_fraction * static_cast<double>(n)));
}

std::vector<std::uint32_t> ArrivalOrder(
    const std::vector<QueryRecord>& records) {
  std::vector<std::uint32_t> order;
  const auto by_arrival = [](const QueryRecord& a, const QueryRecord& b) {
    return a.arrival < b.arrival;
  };
  if (std::is_sorted(records.begin(), records.end(), by_arrival)) {
    return order;
  }
  order.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return records[a].arrival < records[b].arrival;
                   });
  return order;
}

ServerStats ComputeStats(const std::vector<QueryRecord>& records,
                         SimTime sla_target, double warmup_fraction) {
  const std::vector<std::uint32_t> order = ArrivalOrder(records);
  StatsFold fold(sla_target);
  for (std::size_t k = WarmupSkip(records.size(), warmup_fraction);
       k < records.size(); ++k) {
    fold.Add(order.empty() ? records[k] : records[order[k]]);
  }
  return std::move(fold).Finish();
}

}  // namespace pe::sim
