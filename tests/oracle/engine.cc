#include "oracle/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace pe::oracle {

NaiveServer::NaiveServer(sim::ServerConfig config,
                         const profile::ModelRepertoire& repertoire,
                         sched::Scheduler& scheduler)
    : config_(std::move(config)),
      repertoire_(repertoire),
      scheduler_(scheduler),
      rng_(config_.seed) {
  if (config_.partition_gpcs.empty()) {
    throw std::invalid_argument("NaiveServer: no partitions configured");
  }
  if (config_.deadline > 0) {
    throw std::invalid_argument("NaiveServer: deadlines are not modeled");
  }
  Reset();
}

void NaiveServer::Reset() {
  events_ = {};
  next_seq_ = 0;
  now_ = 0;
  central_.clear();
  lane_free_at_.assign(
      static_cast<std::size_t>(std::max(1, config_.frontend.lanes)), 0);
  queries_.clear();
  records_.clear();
  reconfiguring_ = false;
  ready_at_ = 0;
  pending_layout_.clear();
  generation_ = 0;
  Build(config_.partition_gpcs);
}

void NaiveServer::Build(std::vector<int> layout) {
  // Worker i is the i-th smallest partition (ties keep layout order).
  std::sort(layout.begin(), layout.end());
  workers_.assign(layout.size(), Worker{});
  for (std::size_t i = 0; i < layout.size(); ++i) {
    workers_[i].gpcs = layout[i];
  }
}

void NaiveServer::Push(SimTime time, Kind kind, std::uint64_t payload) {
  events_.push(Event{time, next_seq_++, kind, payload});
}

std::vector<sched::WorkerState> NaiveServer::States() const {
  std::vector<sched::WorkerState> states;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = workers_[i];
    SimTime wait = 0;
    for (const Queued& q : w.queue) wait += q.estimate;
    if (w.running) {
      wait += std::max<SimTime>(0, w.running->estimate - (now_ - w.started));
    }
    sched::WorkerState s;
    s.index = static_cast<int>(i);
    s.gpcs = w.gpcs;
    s.idle = !w.running && w.queue.empty();
    s.wait_ticks = wait;
    s.queue_length = w.queue.size();
    s.resident_model = w.resident_model;
    states.push_back(s);
  }
  return states;
}

int NaiveServer::Consult(const workload::Query& query, bool orphan) {
  const std::vector<sched::WorkerState> states = States();
  return orphan ? scheduler_.RequeueOrphan(query, states)
                : scheduler_.OnQueryArrival(query, states);
}

void NaiveServer::CheckIndex(int index) const {
  if (index < 0 || index >= static_cast<int>(workers_.size())) {
    throw std::out_of_range("scheduler returned invalid worker index");
  }
}

void NaiveServer::Place(const workload::Query& query, int index) {
  Worker& w = workers_[static_cast<std::size_t>(index)];
  const double sec =
      repertoire_.EstimateSec(query.model_id, w.gpcs, query.batch);
  records_[query.id].dispatched = now_;
  w.queue.push_back(Queued{query, std::max<SimTime>(1, SecToTicks(sec))});
  StartHead(index);
}

void NaiveServer::StartHead(int index) {
  Worker& w = workers_[static_cast<std::size_t>(index)];
  if (reconfiguring_ || w.running || w.queue.empty()) return;
  const Queued head = w.queue.front();
  const workload::Query& q = head.query;
  double sec = repertoire_.ActualSec(q.model_id, w.gpcs, q.batch);
  const double sigma = config_.latency_noise_sigma;
  if (sigma > 0.0) {
    sec *= std::exp(rng_.Normal(0.0, sigma) - 0.5 * sigma * sigma);
  }
  SimTime run = std::max<SimTime>(1, SecToTicks(sec));
  const bool swap = w.resident_model != -1 && w.resident_model != q.model_id;
  if (swap) run += config_.model_swap_cost;
  w.queue.pop_front();
  w.running = head;
  w.started = now_;
  w.done_at = now_ + run;
  w.resident_model = q.model_id;
  sim::QueryRecord& rec = records_[q.id];
  rec.started = now_;
  rec.worker = index;
  rec.worker_gpcs = w.gpcs;
  rec.model_swap = swap;
  Push(w.done_at, Kind::kWorkerDone, static_cast<std::uint64_t>(index));
}

void NaiveServer::Dispatch(const workload::Query& query) {
  if (reconfiguring_) {
    ++records_[query.id].reconfig_stalls;
    central_.push_back(query);
    return;
  }
  const int index = Consult(query, /*orphan=*/false);
  if (index == sched::kNoAssignment) {
    if (!scheduler_.UsesCentralQueue()) {
      throw std::logic_error(
          "scheduler returned kNoAssignment but has no central queue");
    }
    central_.push_back(query);
    return;
  }
  CheckIndex(index);
  Place(query, index);
}

void NaiveServer::WorkerDone(int index) {
  Worker& w = workers_[static_cast<std::size_t>(index)];
  records_[w.running->query.id].finished = now_;
  w.running.reset();
  if (reconfiguring_) return;
  StartHead(index);
  // First idle, first serve: a free worker pulls the central head.
  while (!w.running && scheduler_.UsesCentralQueue() && !central_.empty()) {
    const workload::Query next = central_.front();
    central_.pop_front();
    Place(next, index);
  }
}

void NaiveServer::Reoffer() {
  if (!scheduler_.UsesCentralQueue()) return;
  while (!central_.empty()) {
    const workload::Query head = central_.front();
    const int index = Consult(head, /*orphan=*/false);
    if (index == sched::kNoAssignment) return;
    CheckIndex(index);
    central_.pop_front();
    Place(head, index);
  }
}

void NaiveServer::CompleteReconfigure() {
  const std::vector<sched::WorkerState> old_states = States();
  std::vector<workload::Query> orphans;
  for (Worker& w : workers_) {
    for (const Queued& q : w.queue) orphans.push_back(q.query);
  }
  std::sort(orphans.begin(), orphans.end(),
            [this](const workload::Query& a, const workload::Query& b) {
              return std::make_tuple(records_[a.id].dispatched, a.id) <
                     std::make_tuple(records_[b.id].dispatched, b.id);
            });
  Build(std::move(pending_layout_));
  pending_layout_.clear();
  reconfiguring_ = false;
  ready_at_ = 0;
  scheduler_.OnReconfigure(old_states, States());

  const std::deque<workload::Query> held = std::move(central_);
  central_.clear();
  for (const workload::Query& q : orphans) {
    ++records_[q.id].reconfig_stalls;
    const int index = Consult(q, /*orphan=*/true);
    if (index == sched::kNoAssignment) {
      if (!scheduler_.UsesCentralQueue()) {
        throw std::logic_error(
            "scheduler returned kNoAssignment but has no central queue");
      }
      central_.push_back(q);
      continue;
    }
    CheckIndex(index);
    Place(q, index);
  }
  Reoffer();
  for (const workload::Query& q : held) Dispatch(q);
}

void NaiveServer::Process(const Event& ev) {
  switch (ev.kind) {
    case Kind::kArrival:
      if (config_.frontend.enabled) {
        // Earliest-free lane (lowest lane on ties) serves FIFO.
        std::vector<SimTime>& lanes = lane_free_at_;
        auto lane = std::min_element(lanes.begin(), lanes.end());
        *lane = std::max(now_, *lane) + config_.frontend.cost_per_query;
        Push(*lane, Kind::kFrontendDone, ev.payload);
      } else {
        Dispatch(queries_[ev.payload]);
      }
      return;
    case Kind::kFrontendDone:
      Dispatch(queries_[ev.payload]);
      return;
    case Kind::kWorkerDone:
      WorkerDone(static_cast<int>(ev.payload));
      return;
    case Kind::kReconfigDone:
      // A superseded window's completion carries a stale generation.
      if (reconfiguring_ && ev.payload == generation_) CompleteReconfigure();
      return;
  }
}

void NaiveServer::InjectQuery(const workload::Query& query) {
  if (query.id != queries_.size()) {
    throw std::invalid_argument("trace query ids must be dense 0..n-1");
  }
  if (query.arrival < now_) {
    throw std::invalid_argument(
        "NaiveServer: arrival predates the current simulation time");
  }
  if (!repertoire_.Has(query.model_id)) {
    throw std::invalid_argument("NaiveServer: unknown model_id " +
                                std::to_string(query.model_id));
  }
  sim::QueryRecord rec;
  rec.id = query.id;
  rec.batch = query.batch;
  rec.model = query.model_id;
  rec.arrival = query.arrival;
  records_.push_back(rec);
  queries_.push_back(query);
  Push(query.arrival, Kind::kArrival, query.id);
}

void NaiveServer::InjectTrace(const workload::QueryTrace& trace) {
  for (const workload::Query& q : trace.queries()) InjectQuery(q);
}

void NaiveServer::AdvanceTo(SimTime when) {
  while (!events_.empty() && events_.top().time < when) {
    const Event ev = events_.top();
    events_.pop();
    now_ = ev.time;
    Process(ev);
  }
  now_ = std::max(now_, when);
}

void NaiveServer::BeginReconfigure(std::vector<int> new_layout,
                                   SimTime downtime) {
  if (new_layout.empty()) {
    throw std::invalid_argument("BeginReconfigure: empty layout");
  }
  if (*std::min_element(new_layout.begin(), new_layout.end()) < 1) {
    throw std::invalid_argument(
        "BeginReconfigure: partition sizes must be >= 1 GPC");
  }
  if (downtime < 0) {
    throw std::invalid_argument("BeginReconfigure: negative downtime");
  }
  // The new layout comes up `downtime` after the last in-flight query
  // drains; a superseding call retargets but never shortens the window.
  SimTime drained = now_;
  for (const Worker& w : workers_) {
    if (w.running) drained = std::max(drained, w.done_at);
  }
  SimTime ready = drained + downtime;
  if (reconfiguring_) {
    ready = std::max(ready, ready_at_);
  } else {
    for (const workload::Query& q : central_) ++records_[q.id].reconfig_stalls;
  }
  reconfiguring_ = true;
  ready_at_ = ready;
  pending_layout_ = std::move(new_layout);
  Push(ready, Kind::kReconfigDone, ++generation_);
}

sim::SimResult NaiveServer::Finish() {
  while (!events_.empty()) {
    const Event ev = events_.top();
    events_.pop();
    now_ = ev.time;
    Process(ev);
  }
  // Unreachable without faults (every drained worker pulls or is bound
  // work); kept so a record never ends non-terminal.
  for (const workload::Query& q : central_) {
    records_[q.id].failed = true;
    records_[q.id].finished = now_;
  }
  central_.clear();
  return sim::SimResult{std::move(records_)};
}

sim::SimResult NaiveServer::Run(std::span<const workload::Query> queries) {
  Reset();
  for (const workload::Query& q : queries) InjectQuery(q);
  return Finish();
}

}  // namespace pe::oracle
