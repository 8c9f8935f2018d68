// The multi-GPU inference server simulator.
//
// A discrete-event simulation of the paper's serving system (Figure 6):
// queries arrive from a trace, optionally pass through a finite-capacity
// frontend (the query-supply stage whose saturation the paper observed for
// MobileNet at 48 GPCs), are placed by the scheduler, and execute on
// heterogeneous GPU partition workers.
//
// Execution times are sampled from a ground-truth latency function
// (the roofline model, optionally with log-normal noise); the scheduler
// only ever sees the profiled estimates, so estimate/actual divergence is
// faithfully represented when noise is enabled.
//
// The engine can be driven two ways:
//  * batch: Run(trace) replays a whole trace to completion;
//  * incremental: InjectQuery/InjectTrace feed arrivals, AdvanceTo(T)
//    simulates up to (but not including) instant T, BeginReconfigure swaps
//    the partition layout live, and Finish() drains everything left.
//
// Hot-path design:
//  * profile lookups go through a CompiledProfile -- EstimateTicks /
//    ActualTicks are two array indexes instead of a map find +
//    lower_bound + std::function call;
//  * the scheduler consults a server-owned live WorkerView whose per-
//    worker snapshots refresh only when the worker mutated (or, while
//    busy, when time moved), instead of an O(W) snapshot-vector rebuild
//    per consultation -- draining a long central queue after a
//    reconfiguration is no longer O(Q*W);
//  * the live view also keeps a free-at index (sim/free_at_index.h): a
//    min-tree of per-worker lower bounds on free-at time, updated in
//    O(log W) at every worker mutation, so ELSA's per-arrival search is
//    O(log W) per size class instead of a scan of all W workers;
//  * the per-query records are the engine's only per-query array (72 B
//    a query; queues hold a query only while it waits): an event names
//    its query by record index, and the Query the scheduler sees is
//    rebuilt from the record;
//  * a trace injected up front is (typically) already time-sorted, so the
//    in-order prefix of the records is itself the arrival cursor, merged
//    on the fly with the pending-event calendar -- its seq is implicit
//    (seq == record index) and a million-query trace never sits in the
//    priority structure at all;
//  * worker/frontend/reconfiguration events (and every arrival off that
//    prefix: one out of time order, or one injected after any other event
//    seq was drawn, e.g. a fleet retry) live in a two-level
//    bucketed EventCalendar -- a near-future bucket wheel plus a sorted
//    overflow spill -- so the dominant completion -> dispatch ->
//    completion cycle is O(1) amortized instead of a binary heap's
//    O(log E) (see sim/event_calendar.h);
//  * the event loop drains every event at the same timestamp in one
//    sweep: the current time is written, the bound re-checked, and the
//    live view's time epoch bumped once per distinct instant, so wide
//    servers refresh busy-worker wait ticks at most once per instant
//    rather than re-validating per event.
// None of this is observable: events are processed in one total
// (time, seq) order, and every record is pinned against the
// independently written naive engine in tests/oracle/ (a single binary
// heap, a fresh snapshot vector per consultation, uncompiled lookups)
// by engine_golden_test.
//
// A live reconfiguration models a MIG layout change as a first-class
// simulation event: in-flight queries drain on the old layout, queued work
// (central FIFO and the retired partitions' local queues) is carried over
// to the new workers through the scheduler's requeue hook, and dispatch is
// held for the drain + downtime window.  Queries delayed this way are
// marked in their QueryRecord (reconfig_stalls), so the queue-build-up
// transient a reconfiguration causes is measurable.  One RNG stream spans
// the whole run regardless of how many reconfigurations occur.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "profile/compiled_profile.h"
#include "profile/model_repertoire.h"
#include "profile/profile_table.h"
#include "sched/scheduler.h"
#include "sim/event_calendar.h"
#include "sim/free_at_index.h"
#include "sim/metrics.h"
#include "sim/server_config.h"
#include "sim/worker.h"
#include "workload/trace.h"

namespace pe::sim {

class InferenceServer {
 public:
  // Single-model convenience: wraps `profile` + `actual_latency` into an
  // owned one-entry repertoire (model id 0).  `profile` is copied, so only
  // `scheduler` must outlive the server.
  InferenceServer(ServerConfig config, const profile::ProfileTable& profile,
                  sched::Scheduler& scheduler, LatencyFn actual_latency);

  // Multi-model serving: every injected query's model_id must be a valid
  // id of `repertoire`, whose per-model tables provide the scheduler
  // estimates and whose latency functions provide the ground truth.
  // `repertoire` and `scheduler` must outlive the server.
  InferenceServer(ServerConfig config,
                  const profile::ModelRepertoire& repertoire,
                  sched::Scheduler& scheduler);

  // Batch driving: resets incremental state, replays the whole trace to
  // completion, and returns per-query records.  Equivalent to a fresh
  // InjectTrace(trace) + Finish().
  SimResult Run(const workload::QueryTrace& trace);

  // Span form: same semantics over a borrowed query sequence -- lets the
  // fleet tier replay an arena slice (fleet::TraceSplit) without copying
  // it into a QueryTrace first.
  SimResult Run(std::span<const workload::Query> queries);

  // --- Incremental driving API ---------------------------------------
  // Feeds one arrival: the query is copied into its record, the only
  // place the engine keeps it.  Ids must stay dense (query.id == number of
  // queries injected so far) and arrivals must not predate the current
  // time.  While every seq drawn so far went to an in-order arrival, an
  // arrival no earlier than the last one extends the record-prefix cursor;
  // any other arrival goes to the calendar with its own seq.  Either way
  // it pops in the one total (time, seq) order.
  void InjectQuery(const workload::Query& query);

  // Feeds every query of `trace` (ids continuing the dense sequence),
  // reserving record capacity for the whole trace up front.
  void InjectTrace(const workload::QueryTrace& trace);

  // Span form of InjectTrace (same dense-id and ordering requirements).
  void InjectSpan(std::span<const workload::Query> queries);

  // Processes every pending event strictly before `when`, then sets the
  // current time to `when` (no-op when `when` is in the past).  Events at
  // exactly `when` stay pending: AdvanceTo leaves the simulation in the
  // state at the *start* of that instant.
  void AdvanceTo(SimTime when);

  // Begins a live reconfiguration to `new_layout` at the current time:
  // dispatch is held from now on, in-flight queries drain on the old
  // workers, and the new layout comes up `downtime` ticks after the drain
  // completes.  Queued work is carried over (nothing is lost or re-run).
  // Calling again before the window closes supersedes the pending target
  // layout and extends the window -- it never shortens.
  void BeginReconfigure(std::vector<int> new_layout, SimTime downtime);

  // Drains every remaining event (including a pending reconfiguration)
  // and returns the per-query records.  Queries still parked by a total
  // outage (every worker failed, no recovery) are marked failed rather
  // than left dangling, so every record ends terminal: completed, failed,
  // or shed.
  SimResult Finish();

  // --- Fault injection -------------------------------------------------
  // Fails worker `index` at the current time (a lost MIG slice).  The
  // in-flight query, if any, is killed -- its record marked failed, its
  // pending completion event cancelled -- and returned.  Queued-but-
  // unstarted entries are, with `requeue_orphans`, re-placed through the
  // scheduler's orphan hook onto surviving workers (parked centrally when
  // every worker is down); without it they are marked failed and returned
  // too (the whole-server-crash path, where the caller re-routes them
  // across the fleet).  A failed worker reports failed in its WorkerState,
  // never reports idle, and receives no work until RecoverWorker.  Note: a
  // live reconfiguration replaces the worker set, so failure marks do not
  // survive BeginReconfigure.  No-op (empty return) if already failed.
  std::vector<workload::Query> FailWorker(int index,
                                          bool requeue_orphans = true);

  // Heals worker `index`; parked/central work is re-offered immediately.
  void RecoverWorker(int index);

  // Removes every centrally held query (awaiting dispatch or parked by an
  // outage), marking each record failed at the current time, and returns
  // them -- the whole-server-crash path, where the fleet driver re-routes
  // them to surviving replicas.
  std::vector<workload::Query> FailCentralQueue();

  // Multiplies every subsequent query's *actual* execution time by
  // `factor` (a degraded replica / brownout).  Scheduler estimates are
  // deliberately unchanged: the scheduler plans against the profile while
  // the hardware underdelivers, exactly the estimate/actual divergence a
  // real slowdown causes.  1.0 restores nominal speed; factor must be > 0.
  void SetSlowdownFactor(double factor);

  int num_failed_workers() const { return num_failed_; }
  // Current worker count -- the *live* layout's size, which tracks
  // BeginReconfigure swaps (callers iterating workers to fail a whole
  // server must use this, not the configured layout).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  SimTime now() const { return now_; }
  bool reconfiguring() const { return reconfiguring_; }

  const std::vector<PartitionWorker>& workers() const { return workers_; }

 private:
  // The Event record and EventType live in sim/event_calendar.h beside
  // the structure that orders them.

  // Server-owned incremental scheduler view.  WorkerState snapshots are
  // cached per worker and re-materialized only when the worker's version
  // ticked or, for busy workers, when the view's time epoch moved (the
  // in-flight remainder of Twait is the one time-dependent term); Get is
  // O(1), with no per-consultation O(W) vector rebuild.  The epoch is bumped
  // by the event loop exactly once per distinct simulated instant (the
  // batched same-timestamp sweep), so however many events land on one
  // timestamp, each busy worker's wait ticks refresh at most once for
  // it.  layout_version() is process-unique per BuildWorkers so schedulers
  // can cache per-layout derived state against it.
  //
  // Positions are worker indices, (gpcs, index)-ascending, so each size
  // class is a contiguous position range.  The view keeps a free-at index
  // over them: per worker, PartitionWorker::FreeAtBound taken when the
  // worker last mutated (SyncWorker), so key - now <= EstimatedWait(now)
  // always holds, with equality unless an in-flight query overran its
  // estimate; failed workers hold kNever.  FirstWaitAtMost answers from it
  // in O(log W).  Keys are absolute times, so moving the clock updates
  // nothing.
  class LiveWorkerView final : public sched::WorkerView {
   public:
    explicit LiveWorkerView(const InferenceServer& server)
        : server_(server) {}

    std::size_t size() const override;
    const sched::WorkerState& Get(std::size_t i) const override;
    std::size_t FirstWaitAtMost(std::size_t begin, std::size_t end,
                                SimTime bound) const override;
    // Answered from the server's incrementally maintained idle set
    // (O(log W) per worker mutation, O(1) here); see idle_workers_.
    int MaxGpcsIdleWorker() const override;
    bool stable() const override { return true; }
    std::uint64_t layout_version() const override { return version_; }

    // A fresh all-idle layout of `num_workers`, every free-at key `now`.
    void OnLayoutChange(std::size_t num_workers, SimTime now);
    // One call per distinct simulated instant: invalidates every busy
    // worker's cached wait ticks in O(1) by moving the shared epoch.
    void BeginInstant() { ++time_epoch_; }
    // Re-keys worker i at `now` (O(log W); free when the key held).
    void SyncKey(std::size_t i, SimTime now);
    // Every stored key equals FreeAtBound at its sync time, and every
    // failed worker holds kNever.  O(W); asserted per consultation in
    // assert-enabled builds, so a mutation site that skipped SyncWorker
    // fails loudly instead of silently changing a decision.
    bool KeysConsistent() const;

   private:
    struct Slot {
      sched::WorkerState state;
      std::uint64_t seen_version = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t seen_epoch = std::numeric_limits<std::uint64_t>::max();
    };

    const InferenceServer& server_;
    std::uint64_t version_ = 0;
    std::uint64_t time_epoch_ = 0;
    mutable std::vector<Slot> slots_;
    FreeAtIndex free_at_;
    std::vector<SimTime> synced_at_;  // per worker: its key's sync time
  };

  void Reset();
  void Push(SimTime time, EventType type, std::uint32_t payload);
  void PushWithSeq(SimTime time, std::uint64_t seq, EventType type,
                   std::uint32_t payload);
  // Pops the earliest pending event (merging the calendar with the
  // record-prefix arrival cursor by (time, seq)) into `ev`.  With
  // `bounded`, events at or after `bound` stay pending.  Returns false
  // when nothing qualifies.
  bool PopNextEvent(SimTime bound, bool bounded, Event& ev);
  // The shared event loop of AdvanceTo/Finish: pops events in (time, seq)
  // order and drains every event at the same timestamp in one sweep --
  // the current time is written and the view's time epoch bumped once per
  // distinct instant.
  void DrainEvents(SimTime bound, bool bounded);
  // Moves the clock, bumping the live view's time epoch on real moves.
  void SetNow(SimTime when);
  void ProcessEvent(const Event& ev);
  // The query injected as record `index`, rebuilt from that record.
  workload::Query QueryOf(std::uint32_t index) const;
  // Scheduler consultation for an arrival or an orphan, through the
  // live view (wait times as of now_).
  int ConsultScheduler(const workload::Query& query, bool orphan);
  void Dispatch(const workload::Query& query, SimTime now);
  void CompleteReconfigure(SimTime now);
  // Re-offers central-queue heads to the scheduler (central-queue
  // schedulers only), stopping at the first it declines; used after a
  // reconfiguration brings the new (all-idle) workers up.
  void ReofferCentralQueue(SimTime now);
  // Materializes every worker's state (the OnReconfigure lifecycle
  // hook's old/new layout arguments).
  std::vector<sched::WorkerState> Snapshots(SimTime now) const;
  void BuildWorkers(const std::vector<int>& partition_gpcs);
  // Re-files `worker` in idle_workers_ and re-keys it in the view's
  // free-at index.  Called after every worker mutation: Enqueue, Start,
  // Finish, Abort, PopHead, SetFailed and TakeQueue (BuildWorkers
  // re-files a whole fresh layout).
  void SyncWorker(const PartitionWorker& worker);
  // Starts the worker's head query if the worker is free, recording start
  // metadata (including any model-swap charge) and scheduling the
  // completion event.
  void StartHead(PartitionWorker& worker, SimTime now);
  SimTime ActualTicks(int model_id, int gpcs, int batch);
  SimTime EstimateTicks(int model_id, int gpcs, int batch) const;

  ServerConfig config_;
  // `repertoire_` points at either the borrowed multi-model repertoire or
  // the owned single-model wrapper built by the legacy constructor.
  std::unique_ptr<profile::ModelRepertoire> owned_repertoire_;
  const profile::ModelRepertoire* repertoire_;
  sched::Scheduler& scheduler_;
  Rng rng_;
  // Dense lookup surface compiled from `repertoire_` once per server.
  profile::CompiledProfile compiled_;

  // Worker/frontend/reconfig events plus the arrivals off the cursor
  // prefix, in the two-level bucketed calendar (O(1) amortized).
  EventCalendar calendar_;
  // The arrival cursor: records_[0, cursor_end_) are time-sorted arrivals
  // whose seq is their record index, merged with the calendar at pop
  // time; `arrival_cursor_` is the next one to pop.
  std::size_t cursor_end_ = 0;
  std::size_t arrival_cursor_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;

  std::vector<PartitionWorker> workers_;
  LiveWorkerView view_{*this};
  // Idle index backing LiveWorkerView::MaxGpcsIdleWorker():
  // {-gpcs, index} per idle worker, so begin() is the largest partition
  // with the lowest index -- exactly FIFS's scan winner.  Maintained by
  // SyncWorker (which skips the set when idleness did not flip, tracked
  // in idle_filed_) and rebuilt by BuildWorkers.
  std::set<std::pair<int, int>> idle_workers_;
  std::vector<char> idle_filed_;
  // Unassigned queries.  For central-queue schedulers this is the ordinary
  // central FIFO; during a reconfiguration window it additionally holds
  // every arrival (any scheduler) until the new layout is up.
  std::deque<workload::Query> central_queue_;
  std::vector<SimTime> frontend_free_at_;  // per lane
  // One record per injected query, by id: the only per-query array.
  std::vector<QueryRecord> records_;

  // Live-reconfiguration state: while `reconfiguring_`, no query starts
  // and arrivals are held.  `reconfig_gen_` stamps the kReconfigDone event
  // so a superseded window's completion is ignored.
  bool reconfiguring_ = false;
  SimTime reconfig_ready_ = 0;
  std::vector<int> pending_layout_;
  std::uint32_t reconfig_gen_ = 0;

  // Fault-injection state.  `done_seq_[i]` is the event seq of worker i's
  // pending completion (written at every start), so FailWorker can cancel
  // it through `stale_done_`; the kWorkerDone handler drops cancelled
  // seqs.  All empty/neutral without fault injection: the clean-run cost
  // is one empty() check per completion.
  std::vector<std::uint64_t> done_seq_;
  std::set<std::uint64_t> stale_done_;
  int num_failed_ = 0;
  double slowdown_ = 1.0;
};

}  // namespace pe::sim
