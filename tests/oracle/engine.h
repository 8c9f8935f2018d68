// The naive single-server engine: the golden baseline every production
// engine record is pinned against.
//
// Written for obviousness, not speed, and independently of the
// production engine's internals (no PartitionWorker, no EventCalendar, no
// CompiledProfile, no live view):
//  * every pending event -- arrivals included -- sits in one binary heap
//    ordered by (time, seq), seq being one counter drawn at every push
//    and at every injection;
//  * each worker keeps its own FIFO of (query, estimate) pairs, and every
//    scheduler consultation gets a freshly built WorkerState vector in
//    which Twait = the sum of the queued estimates + max(0, in-flight
//    estimate - elapsed);
//  * estimates are max(1, SecToTicks(ModelRepertoire::EstimateSec)), and
//    execution times max(1, SecToTicks(ModelRepertoire::ActualSec x the
//    mean-one log-normal noise factor)) plus the swap charge.
//
// Covered semantics (those of sim/server.h): the frontend lanes, latency
// noise on one RNG stream seeded at construction, the model-swap charge,
// out-of-order InjectQuery, AdvanceTo exclusive of its bound, superseding
// BeginReconfigure windows (retarget, never shorten; stale completions
// ignored), orphan carry-over in (dispatched, id) order, and Finish.
// Fault injection and deadlines are out of scope: a config with a
// deadline is rejected.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/server_config.h"
#include "workload/trace.h"

namespace pe::oracle {

class NaiveServer {
 public:
  // `repertoire` and `scheduler` are borrowed and must outlive the
  // server.  Throws std::invalid_argument on an empty layout or a
  // configured deadline.
  NaiveServer(sim::ServerConfig config,
              const profile::ModelRepertoire& repertoire,
              sched::Scheduler& scheduler);

  // Fresh state, every query injected, then Finish().
  sim::SimResult Run(std::span<const workload::Query> queries);
  sim::SimResult Run(const workload::QueryTrace& trace) {
    return Run(std::span<const workload::Query>(trace.queries()));
  }

  // Same contracts as the production engine's incremental API.
  void InjectQuery(const workload::Query& query);
  void InjectTrace(const workload::QueryTrace& trace);
  void AdvanceTo(SimTime when);
  void BeginReconfigure(std::vector<int> new_layout, SimTime downtime);
  sim::SimResult Finish();

 private:
  enum class Kind { kArrival, kFrontendDone, kWorkerDone, kReconfigDone };

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kArrival;
    std::uint64_t payload = 0;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Queued {
    workload::Query query;
    SimTime estimate = 0;
  };
  struct Worker {
    int gpcs = 0;
    std::deque<Queued> queue;
    std::optional<Queued> running;
    SimTime started = 0;
    SimTime done_at = 0;
    int resident_model = -1;
  };

  void Reset();
  void Build(std::vector<int> layout);
  void Push(SimTime time, Kind kind, std::uint64_t payload);
  void Process(const Event& ev);
  std::vector<sched::WorkerState> States() const;
  int Consult(const workload::Query& query, bool orphan);
  void CheckIndex(int index) const;
  void Place(const workload::Query& query, int index);
  void StartHead(int index);
  void Dispatch(const workload::Query& query);
  void WorkerDone(int index);
  void Reoffer();
  void CompleteReconfigure();

  sim::ServerConfig config_;
  const profile::ModelRepertoire& repertoire_;
  sched::Scheduler& scheduler_;
  Rng rng_;

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  std::vector<Worker> workers_;
  std::deque<workload::Query> central_;
  std::vector<SimTime> lane_free_at_;
  std::vector<workload::Query> queries_;
  std::vector<sim::QueryRecord> records_;

  bool reconfiguring_ = false;
  SimTime ready_at_ = 0;
  std::vector<int> pending_layout_;
  std::uint64_t generation_ = 0;
};

}  // namespace pe::oracle
