// In-memory spans for the traced benchmark run, plus the decorators that
// time the scheduler and the router from outside the program.
//
// Spans are recorded only by the benchmark's own code, around each call
// it makes into a layer.  A layer's self time is its span's duration
// minus its children's durations; the per-layer metrics are sums of self
// times by span name.  At exit the spans are written as Chrome Trace
// Event JSON, which Perfetto and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/result_io.h"
#include "fleet/router.h"
#include "sched/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

struct Span {
  std::string name;  // "<module>.<call>"
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t dur_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int server = -1;  // fleet server id for per-server spans
  // True for a span whose duration was summed over many short calls
  // (sched.decide): it has no real start, so the Chrome trace lays it out
  // on its own track from the parent's start.
  bool accumulated = false;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Opens a span as a child of the innermost open span.
  int Begin(std::string name, int server = -1);
  void End(int index);
  // Records a child of the innermost open span whose duration was
  // accumulated by a decorator.
  void AddAccumulated(std::string name, std::int64_t dur_ns, int server);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of self times (duration minus children) per span name, over the
  // spans descending from root span `root`.
  std::map<std::string, std::int64_t> SelfTimes(int root) const;
  pe::core::Json ToChromeTrace() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int server = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, server) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// Per-server scheduler counters, filled by TimedScheduler.
struct SchedCounters {
  std::uint64_t decisions = 0;  // OnQueryArrival calls
  std::uint64_t requeues = 0;   // RequeueOrphan calls
  std::int64_t decide_ns = 0;   // time inside both
};

// Forwards every Scheduler method to `inner`, timing the two decision
// calls into `counters`.
class TimedScheduler final : public pe::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<pe::sched::Scheduler> inner,
                 SchedCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;

  int OnQueryArrival(const pe::workload::Query& query,
                     const pe::sched::WorkerView& workers) override {
    const auto t0 = Clock::now();
    const int w = inner_->OnQueryArrival(query, workers);
    counters_.decide_ns += ElapsedNs(t0);
    ++counters_.decisions;
    return w;
  }
  bool UsesCentralQueue() const override {
    return inner_->UsesCentralQueue();
  }
  void OnReconfigure(
      const std::vector<pe::sched::WorkerState>& old_workers,
      const std::vector<pe::sched::WorkerState>& new_workers) override {
    inner_->OnReconfigure(old_workers, new_workers);
  }
  int RequeueOrphan(const pe::workload::Query& query,
                    const pe::sched::WorkerView& workers) override {
    const auto t0 = Clock::now();
    const int w = inner_->RequeueOrphan(query, workers);
    counters_.decide_ns += ElapsedNs(t0);
    ++counters_.requeues;
    return w;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pe::sched::Scheduler> inner_;
  SchedCounters& counters_;
};

// Forwards every Router method to `inner`, recording each batch route
// as a fleet.route span.
class TimedRouter final : public pe::fleet::Router {
 public:
  TimedRouter(std::unique_ptr<pe::fleet::Router> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int Route(const pe::workload::Query& query) override {
    return inner_->Route(query);
  }
  std::vector<int> RouteAll(const pe::workload::QueryTrace& trace) override {
    const Scope span(&tracer_, "fleet.route");
    return inner_->RouteAll(trace);
  }
  std::vector<int> RouteAll(const pe::workload::QueryTrace& trace,
                            int jobs) override {
    const Scope span(&tracer_, "fleet.route");
    return inner_->RouteAll(trace, jobs);
  }
  void Reset() override { inner_->Reset(); }
  void OnPlacementChange() override { inner_->OnPlacementChange(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pe::fleet::Router> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
