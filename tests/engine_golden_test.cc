// Golden determinism suite for the event engine: the production engine
// (compiled profile lookups, incremental scheduler view with its free-at
// index, sorted arrival cursor, bucketed calendar) and ELSA (per-class
// thresholds and branch-and-bound over the view's FirstWaitAtMost) must
// produce QueryRecord streams bit-identical to the independently written
// oracle in tests/oracle/ -- one binary heap, fresh snapshot vectors,
// uncompiled lookups, full-scan Algorithm 2 -- for every covered
// scenario: FIFS and ELSA, single-model and mixed traffic, static runs,
// live and superseded reconfigurations, the frontend stage, the elastic
// driver, a wide PARIS-style server, ELSA decisions on random snapshot
// vectors, and (through a shadow scheduler) faults on a wide server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "online/elastic_server.h"
#include "online/repartition_controller.h"
#include "oracle/elsa.h"
#include "oracle/engine.h"
#include "sched/elsa.h"
#include "sched/fifs.h"
#include "sim/server.h"
#include "workload/arrival.h"
#include "workload/batch_dist.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace pe::sim {
namespace {

// Distinct per-model cost surfaces; the actual latency deliberately
// diverges from the profile so estimate/actual paths stay distinguishable.
profile::ProfileTable MakeTable(const std::string& name, double scale,
                                const std::vector<int>& sizes) {
  profile::ProfileTable t(name, sizes, {1, 2, 4, 8, 16, 32});
  for (int g : t.partition_sizes()) {
    for (int b : t.batch_sizes()) {
      profile::ProfileEntry e;
      e.latency_sec = scale * 1e-3 * (0.5 + 0.4 * b) / static_cast<double>(g);
      e.utilization = std::min(1.0, 0.08 * b);
      t.Set(g, b, e);
    }
  }
  return t;
}

profile::ModelRepertoire MakeRepertoire(int num_models,
                                        const std::vector<int>& sizes) {
  profile::ModelRepertoire rep;
  for (int m = 0; m < num_models; ++m) {
    const double scale = 1.0 + 0.6 * m;
    // Built via += (not `"m" + std::to_string(...)`): GCC-12's -Wrestrict
    // false-positives on operator+(const char*, string&&) in Release.
    std::string name = "m";
    name += std::to_string(m);
    rep.Register(std::move(name), MakeTable("m", scale, sizes),
                 [scale](int gpcs, int batch) {
                   return scale * 1.07e-3 * (0.5 + 0.4 * batch) /
                          static_cast<double>(gpcs);
                 });
  }
  return rep;
}

profile::ModelRepertoire MakeRepertoire(int num_models) {
  return MakeRepertoire(num_models, {1, 2, 3, 7});
}

workload::QueryTrace MakeTraceFor(const profile::ModelRepertoire& rep,
                                  std::size_t n, std::uint64_t seed,
                                  double rate_qps = 900.0) {
  Rng rng(seed);
  workload::PoissonArrivals arrivals(rate_qps);
  workload::LogNormalBatchDist d0(6.0, 0.9, 32);
  workload::LogNormalBatchDist d1(4.0, 0.7, 32);
  workload::LogNormalBatchDist d2(9.0, 0.8, 32);
  if (rep.size() == 1) {
    workload::ArrivalTraceSource source(arrivals, d0);
    return workload::Take(source, n, rng);
  }
  workload::MixSpec mix;
  mix.components.push_back({0, 0.5, &d0});
  mix.components.push_back({1, 0.3, &d1});
  mix.components.push_back({2, 0.2, &d2});
  workload::MixTraceSource source(arrivals, mix);
  return workload::Take(source, n, rng);
}

enum class Sched { kFifs, kElsa };

oracle::ElsaKnobs Knobs(const sched::ElsaParams& p) {
  return {p.alpha, p.beta, p.locality_tie_sec, p.swap_cost_sec};
}

// The production scheduler of `kind`, or -- with `naive` -- the one the
// oracle engine runs: the full-scan ELSA, and FIFS as is (its vector-view
// path is the plain idle scan).
std::unique_ptr<sched::Scheduler> MakeSched(Sched kind,
                                            const profile::ModelRepertoire& rep,
                                            SimTime sla,
                                            const sched::ElsaParams& params,
                                            bool naive) {
  if (kind == Sched::kFifs) return std::make_unique<sched::FifsScheduler>();
  if (naive) {
    return std::make_unique<oracle::NaiveElsa>(rep, sla, Knobs(params));
  }
  return std::make_unique<sched::ElsaScheduler>(rep, sla, params);
}

// One scheduler consultation as the scheduler saw it: the worker states
// it was shown (every field, Twait included) and what it answered.
struct Consultation {
  std::uint64_t query = 0;
  bool orphan = false;
  int choice = 0;
  std::vector<sched::WorkerState> states;
};

// Forwards to `inner` and logs every consultation, so the two engines are
// compared on what their schedulers were shown, not only on the records.
class RecordingScheduler final : public sched::Scheduler {
 public:
  RecordingScheduler(std::unique_ptr<sched::Scheduler> inner,
                     std::vector<Consultation>& log)
      : inner_(std::move(inner)), log_(log) {}

  using Scheduler::OnQueryArrival;
  using Scheduler::RequeueOrphan;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    Consultation& c = Log(query, /*orphan=*/false, workers);
    return c.choice = inner_->OnQueryArrival(query, workers);
  }
  int RequeueOrphan(const workload::Query& query,
                    const sched::WorkerView& workers) override {
    Consultation& c = Log(query, /*orphan=*/true, workers);
    return c.choice = inner_->RequeueOrphan(query, workers);
  }
  bool UsesCentralQueue() const override { return inner_->UsesCentralQueue(); }
  void OnReconfigure(const std::vector<sched::WorkerState>& old_workers,
                     const std::vector<sched::WorkerState>& new_workers)
      override {
    inner_->OnReconfigure(old_workers, new_workers);
  }
  std::string name() const override { return inner_->name(); }

 private:
  Consultation& Log(const workload::Query& query, bool orphan,
                    const sched::WorkerView& workers) {
    Consultation c;
    c.query = query.id;
    c.orphan = orphan;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      c.states.push_back(workers.Get(i));
    }
    log_.push_back(std::move(c));
    return log_.back();
  }

  std::unique_ptr<sched::Scheduler> inner_;
  std::vector<Consultation>& log_;
};

struct Streams {
  std::vector<QueryRecord> production;
  std::vector<QueryRecord> oracle;
  std::vector<Consultation> production_log;
  std::vector<Consultation> oracle_log;
};

// Drives one scenario through both stacks: `drive(server)` takes either
// engine (they share the driving API) and returns its SimResult.
template <typename Drive>
Streams RunBoth(const ServerConfig& config,
                const profile::ModelRepertoire& rep, Sched kind,
                const sched::ElsaParams& params, Drive&& drive) {
  Streams out;
  RecordingScheduler fast_sched(
      MakeSched(kind, rep, config.sla_target, params, /*naive=*/false),
      out.production_log);
  InferenceServer fast(config, rep, fast_sched);
  out.production = drive(fast).records;
  RecordingScheduler naive_sched(
      MakeSched(kind, rep, config.sla_target, params, /*naive=*/true),
      out.oracle_log);
  oracle::NaiveServer naive(config, rep, naive_sched);
  out.oracle = drive(naive).records;
  return out;
}

void ExpectIdenticalConsultations(const Streams& streams,
                                  const std::string& label) {
  const auto& fast = streams.production_log;
  const auto& ref = streams.oracle_log;
  ASSERT_EQ(fast.size(), ref.size()) << label;
  for (std::size_t k = 0; k < fast.size(); ++k) {
    const std::string at = label + " consultation " + std::to_string(k);
    EXPECT_EQ(fast[k].query, ref[k].query) << at;
    EXPECT_EQ(fast[k].orphan, ref[k].orphan) << at;
    EXPECT_EQ(fast[k].choice, ref[k].choice) << at;
    ASSERT_EQ(fast[k].states.size(), ref[k].states.size()) << at;
    for (std::size_t i = 0; i < fast[k].states.size(); ++i) {
      const sched::WorkerState& a = fast[k].states[i];
      const sched::WorkerState& b = ref[k].states[i];
      EXPECT_EQ(a.index, b.index) << at << " worker " << i;
      EXPECT_EQ(a.gpcs, b.gpcs) << at << " worker " << i;
      EXPECT_EQ(a.idle, b.idle) << at << " worker " << i;
      EXPECT_EQ(a.wait_ticks, b.wait_ticks) << at << " worker " << i;
      EXPECT_EQ(a.queue_length, b.queue_length) << at << " worker " << i;
      EXPECT_EQ(a.resident_model, b.resident_model) << at << " worker " << i;
      EXPECT_EQ(a.failed, b.failed) << at << " worker " << i;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

void ExpectIdenticalRecords(const Streams& streams, const std::string& label) {
  ExpectIdenticalConsultations(streams, label);
  if (::testing::Test::HasFailure()) return;
  const std::vector<QueryRecord>& fast = streams.production;
  const std::vector<QueryRecord>& ref = streams.oracle;
  ASSERT_EQ(fast.size(), ref.size()) << label;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const QueryRecord& a = fast[i];
    const QueryRecord& b = ref[i];
    EXPECT_EQ(a.id, b.id) << label << " record " << i;
    EXPECT_EQ(a.batch, b.batch) << label << " record " << i;
    EXPECT_EQ(a.model, b.model) << label << " record " << i;
    EXPECT_EQ(a.arrival, b.arrival) << label << " record " << i;
    EXPECT_EQ(a.dispatched, b.dispatched) << label << " record " << i;
    EXPECT_EQ(a.started, b.started) << label << " record " << i;
    EXPECT_EQ(a.finished, b.finished) << label << " record " << i;
    EXPECT_EQ(a.worker, b.worker) << label << " record " << i;
    EXPECT_EQ(a.worker_gpcs, b.worker_gpcs) << label << " record " << i;
    EXPECT_EQ(a.model_swap, b.model_swap) << label << " record " << i;
    EXPECT_EQ(a.reconfig_stalls, b.reconfig_stalls)
        << label << " record " << i;
    EXPECT_EQ(a.failed, b.failed) << label << " record " << i;
    // One diverging record is enough detail.
    if (::testing::Test::HasFailure()) return;
  }
}

std::size_t CountStalled(const std::vector<QueryRecord>& records) {
  std::size_t n = 0;
  for (const QueryRecord& r : records) n += r.reconfig_stalls > 0 ? 1 : 0;
  return n;
}

std::string Label(Sched sched, int models, std::uint64_t seed) {
  std::string label = sched == Sched::kFifs ? "FIFS" : "ELSA";
  label += "/m";
  label += std::to_string(models);
  label += "/seed";
  label += std::to_string(seed);
  return label;
}

// The shared scenario shape: a noisy six-partition server with a swap
// charge, so the RNG stream, the swap path and both schedulers' choices
// all shape the records.
ServerConfig ScenarioConfig(std::uint64_t seed) {
  ServerConfig config;
  config.partition_gpcs = {1, 1, 2, 3, 7, 7};
  config.sla_target = MsToTicks(40.0);
  config.latency_noise_sigma = 0.25;  // exercise the RNG stream
  config.seed = seed ^ 0xBEEF;
  config.model_swap_cost = UsToTicks(250.0);
  return config;
}

sched::ElsaParams ScenarioParams(int models) {
  sched::ElsaParams params;
  params.locality_tie_sec = models > 1 ? 0.002 : 0.0;
  return params;
}

TEST(EngineGolden, FastPathMatchesReferenceEverywhere) {
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    for (const int models : {1, 3}) {
      for (const bool reconfigure : {false, true}) {
        for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
          const auto rep = MakeRepertoire(models);
          const auto trace = MakeTraceFor(rep, 600, seed);
          std::string label = Label(sched, models, seed);
          label += reconfigure ? "/reconfig" : "/static";
          const auto streams = RunBoth(
              ScenarioConfig(seed), rep, sched, ScenarioParams(models),
              [&](auto& server) {
                if (!reconfigure) return server.Run(trace);
                // Live-reconfiguration driving: chunked advances around
                // two layout swaps (the second supersedes nothing; both
                // complete).
                server.InjectTrace(trace);
                server.AdvanceTo(MsToTicks(120.0));
                server.BeginReconfigure({2, 2, 3, 7}, MsToTicks(15.0));
                server.AdvanceTo(MsToTicks(300.0));
                server.BeginReconfigure({1, 2, 3, 3, 7, 7}, MsToTicks(10.0));
                return server.Finish();
              });
          ExpectIdenticalRecords(streams, label);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// A second and third BeginReconfigure inside an open window: the target
// layout is retargeted, a shorter downtime never shortens the window, a
// longer one extends it, and the superseded windows' completions are
// ignored.
TEST(EngineGolden, SupersededReconfigurationMatchesReference) {
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    for (const int models : {1, 3}) {
      for (const std::uint64_t seed : {3ull, 19ull}) {
        const auto rep = MakeRepertoire(models);
        const auto trace = MakeTraceFor(rep, 600, seed);
        const auto streams = RunBoth(
            ScenarioConfig(seed), rep, sched, ScenarioParams(models),
            [&](auto& server) {
              server.InjectTrace(trace);
              server.AdvanceTo(MsToTicks(100.0));
              server.BeginReconfigure({2, 2, 3, 7}, MsToTicks(40.0));
              server.AdvanceTo(MsToTicks(110.0));
              server.BeginReconfigure({1, 1, 3, 7, 7}, MsToTicks(5.0));
              server.AdvanceTo(MsToTicks(120.0));
              server.BeginReconfigure({3, 3, 7}, MsToTicks(60.0));
              server.AdvanceTo(MsToTicks(400.0));
              server.BeginReconfigure({1, 2, 3, 7, 7}, MsToTicks(10.0));
              return server.Finish();
            });
        const std::string label = Label(sched, models, seed) + "/superseded";
        ExpectIdenticalRecords(streams, label);
        EXPECT_GT(CountStalled(streams.production), 0u) << label;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// The frontend keeps preprocessing through a reconfiguration window:
// frontend completions land while dispatch is held and are re-dispatched
// when the new layout comes up.
TEST(EngineGolden, FrontendReconfigurationMatchesReference) {
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    for (const int models : {1, 3}) {
      const std::uint64_t seed = 29;
      const auto rep = MakeRepertoire(models);
      const auto trace = MakeTraceFor(rep, 600, seed);
      ServerConfig config = ScenarioConfig(seed);
      config.frontend.enabled = true;
      config.frontend.lanes = 3;
      config.frontend.cost_per_query = UsToTicks(900.0);
      const auto streams = RunBoth(
          config, rep, sched, ScenarioParams(models), [&](auto& server) {
            server.InjectTrace(trace);
            server.AdvanceTo(MsToTicks(150.0));
            server.BeginReconfigure({2, 3, 7, 7}, MsToTicks(20.0));
            server.AdvanceTo(MsToTicks(160.0));
            server.BeginReconfigure({1, 2, 2, 7}, MsToTicks(10.0));
            return server.Finish();
          });
      const std::string label = Label(sched, models, seed) + "/frontend";
      ExpectIdenticalRecords(streams, label);
      EXPECT_GT(CountStalled(streams.production), 0u) << label;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

std::vector<workload::Query> QueriesAt(const std::vector<SimTime>& arrivals,
                                       int batch) {
  std::vector<workload::Query> qs;
  for (const SimTime at : arrivals) {
    workload::Query q;
    q.id = qs.size();
    q.arrival = at;
    q.batch = batch;
    qs.push_back(q);
  }
  return qs;
}

// Out-of-order injection falls off the sorted cursor into the calendar;
// the merged order must still be the oracle heap's (time, seq) order.
TEST(EngineGolden, OutOfOrderInjectionMatchesReference) {
  const auto rep = MakeRepertoire(1);
  ServerConfig config;
  config.partition_gpcs = {1, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 5;
  const auto qs =
      QueriesAt({MsToTicks(0.0), MsToTicks(9.0), MsToTicks(3.0),
                 MsToTicks(3.0), MsToTicks(12.0), MsToTicks(1.0)},
                /*batch=*/8);
  const auto streams =
      RunBoth(config, rep, Sched::kFifs, {}, [&](auto& server) {
        for (const auto& q : qs) server.InjectQuery(q);
        return server.Finish();
      });
  ExpectIdenticalRecords(streams, "out-of-order");
}

// Calendar-ordering scenarios: each stresses one structural mechanism of
// the bucketed event calendar (sim/event_calendar.h) and pins the result
// record-by-record against the oracle's single binary heap.

// Same-timestamp bursts: many arrivals share one instant, so their
// frontend/worker completion events collide on single timestamps too; the
// (time, seq) tie-break must order them across calendar buckets exactly
// as the heap does, and the batched same-instant sweep must not perturb
// scheduler decisions made mid-burst.
TEST(EngineGolden, SameInstantBurstTieBreakMatchesReference) {
  const auto rep = MakeRepertoire(1);
  ServerConfig config;
  config.partition_gpcs = {1, 1, 2, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 17;
  config.frontend.enabled = true;  // same-instant frontend-done trains
  config.frontend.lanes = 3;
  std::vector<workload::Query> qs;
  for (std::size_t burst = 0; burst < 50; ++burst) {
    const SimTime at = MsToTicks(5.0 * static_cast<double>(burst));
    for (int k = 0; k < 8; ++k) {
      workload::Query q;
      q.id = qs.size();
      q.arrival = at;  // every query of the burst lands on one tick
      q.batch = 1 + (k % 4) * 8;
      qs.push_back(q);
    }
  }
  const workload::QueryTrace trace(std::move(qs));
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    const auto streams = RunBoth(
        config, rep, sched, {}, [&](auto& server) { return server.Run(trace); });
    ExpectIdenticalRecords(streams, sched == Sched::kFifs
                                        ? "same-instant bursts/FIFS"
                                        : "same-instant bursts/ELSA");
  }
}

// Overflow-spill promotion: out-of-order injections spanning several
// seconds land far beyond the calendar's initial ~67 ms wheel horizon, so
// they wait in the spill and are promoted across multiple re-anchors;
// the pop order must still be the exact global (time, seq) order.
TEST(EngineGolden, FarFutureSpillPromotionMatchesReference) {
  const auto rep = MakeRepertoire(1);
  ServerConfig config;
  config.partition_gpcs = {1, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 23;
  // Alternating near/far arrivals in injection order: every second query
  // breaks the sorted-cursor invariant and falls into the calendar, with
  // times spread over ~8 s (hundreds of wheel horizons apart).
  std::vector<SimTime> arrivals;
  for (std::size_t i = 0; i < 40; ++i) {
    arrivals.push_back(
        (i % 2 == 0) ? MsToTicks(1.0 * static_cast<double>(i))
                     : MsToTicks(8000.0 - 150.0 * static_cast<double>(i)));
  }
  const auto qs = QueriesAt(arrivals, /*batch=*/4);
  const auto streams =
      RunBoth(config, rep, Sched::kFifs, {}, [&](auto& server) {
        for (const auto& q : qs) server.InjectQuery(q);
        return server.Finish();
      });
  ExpectIdenticalRecords(streams, "far-future spill");
}

// Out-of-order fallback under incremental driving: chunked AdvanceTo
// between injection waves, so calendar pops interleave with clock moves
// and a partially drained wheel keeps receiving behind-the-cursor pushes.
TEST(EngineGolden, IncrementalOutOfOrderWavesMatchReference) {
  const auto rep = MakeRepertoire(1);
  ServerConfig config;
  config.partition_gpcs = {1, 2, 7};
  config.sla_target = MsToTicks(30.0);
  config.seed = 31;
  const auto streams =
      RunBoth(config, rep, Sched::kFifs, {}, [&](auto& server) {
        std::uint64_t id = 0;
        for (int wave = 0; wave < 4; ++wave) {
          const SimTime base = MsToTicks(25.0 * static_cast<double>(wave));
          // Each wave injects: ahead-of-now in-order arrivals, then a
          // burst that jumps backwards relative to the previous push
          // (calendar fallback), all at or after the current clock.
          for (int k = 0; k < 6; ++k) {
            workload::Query q;
            q.id = id++;
            q.arrival = base + MsToTicks(20.0 + static_cast<double>(k));
            q.batch = 8;
            server.InjectQuery(q);
          }
          for (int k = 0; k < 6; ++k) {
            workload::Query q;
            q.id = id++;
            q.arrival = base + MsToTicks(5.0 + 2.0 * static_cast<double>(k));
            q.batch = 2;
            server.InjectQuery(q);
          }
          server.AdvanceTo(base + MsToTicks(25.0));
        }
        return server.Finish();
      });
  ExpectIdenticalRecords(streams, "incremental waves");
}

// Same-tick collisions between arrivals and completions: every latency
// is exactly 1 ms (estimated 1.5 ms, so a worker finishing "early" still
// shows in-flight Twait) and arrivals sit on a 0.5 ms grid, so arrivals,
// completions and frontend releases keep landing on one tick.  Waves are
// injected after each AdvanceTo, so late-injected arrivals carry higher
// seqs than the completions already pending at their tick: the (time,
// seq) order, not the arrival-first cursor, must decide.
TEST(EngineGolden, SameTickArrivalCompletionCollisionsMatchReference) {
  profile::ProfileTable table("flat", {1, 2, 3, 7}, {1, 2, 4, 8, 16, 32});
  for (int g : table.partition_sizes()) {
    for (int b : table.batch_sizes()) {
      profile::ProfileEntry e;
      e.latency_sec = 1.5e-3;
      e.utilization = 0.5;
      table.Set(g, b, e);
    }
  }
  profile::ModelRepertoire rep;
  rep.Register("flat", table, [](int, int) { return 1e-3; });
  ServerConfig config;
  config.partition_gpcs = {1, 2, 7};
  config.sla_target = MsToTicks(4.0);
  config.seed = 41;
  for (const Sched sched : {Sched::kFifs, Sched::kElsa}) {
    for (const bool frontend : {false, true}) {
      ServerConfig c = config;
      c.frontend.enabled = frontend;
      c.frontend.lanes = 2;
      c.frontend.cost_per_query = MsToTicks(0.5);
      const auto streams = RunBoth(c, rep, sched, {}, [&](auto& server) {
        std::uint64_t id = 0;
        for (int wave = 0; wave < 20; ++wave) {
          const SimTime base = MsToTicks(5.0 * static_cast<double>(wave));
          server.AdvanceTo(base);
          for (int k = 0; k < 10; ++k) {
            workload::Query q;
            q.id = id++;
            q.arrival = base + MsToTicks(0.5 * static_cast<double>(k));
            q.batch = 4;
            server.InjectQuery(q);
          }
        }
        return server.Finish();
      });
      std::string label = sched == Sched::kFifs ? "collisions/FIFS"
                                                : "collisions/ELSA";
      if (frontend) label += "/frontend";
      ExpectIdenticalRecords(streams, label);
      // Non-vacuous: arrivals really share ticks with completions.
      std::set<SimTime> finishes;
      for (const QueryRecord& r : streams.production) {
        finishes.insert(r.finished);
      }
      std::size_t collisions = 0;
      for (const QueryRecord& r : streams.production) {
        collisions += finishes.count(r.arrival);
      }
      EXPECT_GT(collisions, 20u) << label;
    }
  }
}

// The elastic driver (epoch advances + controller-ordered live
// reconfigurations) against the oracle engine replaying the same epoch
// boundaries and reconfiguration points: per-epoch and total stats match
// exactly.
class ForcedSwitchPolicy final : public online::RepartitionPolicy {
 public:
  ForcedSwitchPolicy(std::vector<int> initial, std::vector<int> next,
                     int switch_at_call)
      : switch_at_call_(switch_at_call) {
    current_.instance_gpcs = std::move(initial);
    next_.instance_gpcs = std::move(next);
    config_.reconfig_downtime = MsToTicks(12.0);
  }

  const partition::PartitionPlan& current_plan() const override {
    return current_;
  }
  const online::ElasticConfig& config() const override { return config_; }

  std::optional<partition::PartitionPlan> MaybeRepartition(
      const online::TrafficEstimator& estimator) override {
    (void)estimator;
    if (++calls_ == switch_at_call_) {
      current_ = next_;
      return current_;
    }
    return std::nullopt;
  }

 private:
  partition::PartitionPlan current_;
  partition::PartitionPlan next_;
  online::ElasticConfig config_;
  int switch_at_call_ = 0;
  int calls_ = 0;
};

TEST(EngineGolden, ElasticDriverMatchesReference) {
  const auto rep = MakeRepertoire(3);
  const SimTime sla = MsToTicks(40.0);
  const std::size_t per_epoch = 250;
  const SimTime swap_cost = UsToTicks(250.0);
  const auto trace = MakeTraceFor(rep, 900, /*seed=*/11);
  sched::ElsaParams params;
  params.locality_tie_sec = 0.002;

  ForcedSwitchPolicy policy({1, 2, 7}, {2, 3, 3, 7}, /*switch_at_call=*/2);
  online::ElasticServerSim elastic(
      policy, rep,
      [&rep, sla, params] {
        return std::make_unique<sched::ElsaScheduler>(rep, sla, params);
      },
      sla, per_epoch, /*seed=*/77, swap_cost);
  const online::ElasticResult fast = elastic.Run(trace);
  ASSERT_EQ(fast.reconfigurations, 1);

  // Oracle replay: one continuous run on the initial layout, advanced to
  // each epoch's first arrival, reconfigured where the elastic run was.
  ServerConfig config;
  config.partition_gpcs = {1, 2, 7};
  config.sla_target = sla;
  config.seed = 77;
  config.model_swap_cost = swap_cost;
  oracle::NaiveElsa naive_elsa(rep, sla, Knobs(params));
  oracle::NaiveServer naive(config, rep, naive_elsa);
  naive.InjectTrace(trace);
  for (std::size_t e = 1; e < fast.epochs.size(); ++e) {
    naive.AdvanceTo(trace.queries()[e * per_epoch].arrival);
    if (fast.epochs[e].reconfigured) {
      naive.BeginReconfigure(fast.epochs[e].layout,
                             policy.config().reconfig_downtime);
    }
  }
  const auto records = naive.Finish().records;

  for (std::size_t e = 0; e < fast.epochs.size(); ++e) {
    const std::size_t begin = e * per_epoch;
    const std::size_t end = std::min(begin + per_epoch, records.size());
    const std::vector<QueryRecord> slice(
        records.begin() + static_cast<std::ptrdiff_t>(begin),
        records.begin() + static_cast<std::ptrdiff_t>(end));
    const auto ref = ComputeStats(slice, sla, /*warmup_fraction=*/0.0);
    EXPECT_EQ(fast.epochs[e].queries, slice.size()) << "epoch " << e;
    EXPECT_EQ(fast.epochs[e].p95_ms, ref.p95_latency_ms) << "epoch " << e;
    EXPECT_EQ(fast.epochs[e].violation_rate, ref.sla_violation_rate)
        << "epoch " << e;
    EXPECT_EQ(fast.epochs[e].stalled, ref.reconfig_stalled) << "epoch " << e;
  }
  const auto ref = ComputeStats(records, sla, /*warmup_fraction=*/0.0);
  EXPECT_GT(ref.reconfig_stalled, 0u);
  EXPECT_EQ(fast.total.completed, ref.completed);
  EXPECT_EQ(fast.total.p95_latency_ms, ref.p95_latency_ms);
  EXPECT_EQ(fast.total.p99_latency_ms, ref.p99_latency_ms);
  EXPECT_EQ(fast.total.mean_latency_ms, ref.mean_latency_ms);
  EXPECT_EQ(fast.total.sla_violation_rate, ref.sla_violation_rate);
  EXPECT_EQ(fast.total.reconfig_stalled, ref.reconfig_stalled);
  EXPECT_EQ(fast.total.model_swaps, ref.model_swaps);
}

// A stable view over a snapshot vector: lets the production ELSA cache its
// candidate order, as it does on the engine's live view, while the test
// controls every field.  FirstWaitAtMost is answered by brute force from a
// per-position lower bound `wait_ticks - slop[i]` -- loose like the live
// view's free-at key of an in-flight query that overran its estimate -- so
// candidates that fail ELSA's exact re-check are exercised.  Over a
// (gpcs, index)-sorted vector, ELSA searches through this override; over
// shuffled positions it re-indexes by rank and scans.
class StableVectorView final : public sched::WorkerView {
 public:
  StableVectorView(const std::vector<sched::WorkerState>& states,
                   const std::vector<SimTime>& slop, std::uint64_t version)
      : states_(states), slop_(slop), version_(version) {}
  std::size_t size() const override { return states_.size(); }
  const sched::WorkerState& Get(std::size_t i) const override {
    return states_[i];
  }
  std::size_t FirstWaitAtMost(std::size_t begin, std::size_t end,
                              SimTime bound) const override {
    for (std::size_t i = begin; i < end; ++i) {
      if (!states_[i].failed && states_[i].wait_ticks - slop_[i] <= bound) {
        return i;
      }
    }
    return end;
  }
  bool stable() const override { return true; }
  std::uint64_t layout_version() const override { return version_; }

 private:
  const std::vector<sched::WorkerState>& states_;
  const std::vector<SimTime>& slop_;
  std::uint64_t version_;
};

// The last wait at which `w`'s size class still has positive swap-free
// slack for `q`, or -1 when not even a zero wait has.
SimTime SlackBoundary(const sched::ElsaScheduler& elsa, sched::WorkerState w,
                      const workload::Query& q) {
  w.resident_model = -1;
  const auto positive = [&](SimTime wait) {
    w.wait_ticks = wait;
    return elsa.SlackSec(w, q.model_id, q.batch) > 0.0;
  };
  if (!positive(0)) return -1;
  SimTime lo = 0;               // positive
  SimTime hi = MsToTicks(1e6);  // not positive
  while (hi - lo > 1) {
    const SimTime mid = lo + (hi - lo) / 2;
    if (positive(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Decision-level golden: ELSA against the full-scan oracle on random
// snapshot vectors -- up to 160 workers, failed workers, resident models,
// swap and locality knobs on, alpha/beta != 1 -- through an ad-hoc vector
// view and a stable view over shuffled positions (rank re-indexing,
// default scan), and through a stable view over sorted positions whose
// FirstWaitAtMost answers from loose lower bounds (the index-driven
// control flow of the engine's live view).
TEST(EngineGolden, ElsaDecisionsMatchFullScanOnRandomSnapshots) {
  const auto rep = MakeRepertoire(3);
  Rng rng(0xE15A);
  const int sizes[] = {1, 2, 3, 7};
  std::size_t step_a = 0;
  std::size_t step_b = 0;
  std::size_t declined = 0;
  std::size_t locality_wins = 0;
  std::size_t wide = 0;
  for (std::uint64_t trial = 1; trial <= 400; ++trial) {
    sched::ElsaParams params;
    params.alpha = rng.Uniform(0.25, 2.0);
    params.beta = rng.Uniform(0.25, 2.0);
    params.swap_cost_sec = trial % 4 == 0 ? 0.0 : rng.Uniform(1e-5, 4e-3);
    params.locality_tie_sec = trial % 3 == 0 ? 0.0 : rng.Uniform(1e-5, 5e-3);
    const SimTime sla = MsToTicks(rng.Uniform(1.0, 25.0));
    sched::ElsaScheduler adhoc(rep, sla, params);
    sched::ElsaScheduler cached(rep, sla, params);
    sched::ElsaScheduler indexed(rep, sla, params);
    oracle::NaiveElsa naive(rep, sla, Knobs(params));
    oracle::ElsaKnobs no_tie = Knobs(params);
    no_tie.locality_tie_sec = 0.0;
    oracle::NaiveElsa plain(rep, sla, no_tie);

    // One layout per trial: worker indices are size-ascending, positions
    // are shuffled.  Every other trial is wide (up to 160 workers).
    const std::int64_t cap = trial % 2 == 0 ? 160 : 24;
    const auto workers = static_cast<std::size_t>(rng.UniformInt(1, cap));
    wide += workers > 64 ? 1 : 0;
    std::vector<int> layout;
    for (std::size_t i = 0; i < workers; ++i) {
      layout.push_back(sizes[rng.UniformInt(0, 3)]);
    }
    std::sort(layout.begin(), layout.end());
    std::vector<sched::WorkerState> states(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      states[i].index = static_cast<int>(i);
      states[i].gpcs = layout[i];
    }
    for (std::size_t i = workers; i > 1; --i) {
      std::swap(states[i - 1],
                states[static_cast<std::size_t>(
                    rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
    }
    const std::vector<SimTime> no_slop(workers, 0);

    for (int call = 0; call < 25; ++call) {
      workload::Query q;
      q.id = static_cast<std::uint64_t>(call);
      q.model_id = static_cast<int>(rng.UniformInt(0, 2));
      q.batch = static_cast<int>(rng.UniformInt(1, 32));
      for (auto& w : states) {
        w.failed = rng.NextDouble() < 0.15;
        w.resident_model = static_cast<int>(rng.UniformInt(-1, 2));
        w.queue_length = static_cast<std::size_t>(rng.UniformInt(0, 3));
        w.wait_ticks =
            rng.NextDouble() < 0.25 ? 0 : MsToTicks(rng.Uniform(0.0, 20.0));
        // A fifth of the waits sit on their class's Step A boundary or one
        // tick past it, so off-by-one-tick thresholds and bounds show.
        if (rng.NextDouble() < 0.2) {
          const SimTime edge = SlackBoundary(adhoc, w, q);
          if (edge >= 0) w.wait_ticks = edge + rng.UniformInt(0, 1);
        }
        w.idle = !w.failed && w.wait_ticks == 0 && w.queue_length == 0;
      }
      // The live view's presentation: positions in (gpcs, index) order,
      // lower bounds loose by up to 5 ms on a third of the workers.
      std::vector<sched::WorkerState> by_rank(workers);
      for (const auto& w : states) {
        by_rank[static_cast<std::size_t>(w.index)] = w;
      }
      std::vector<SimTime> slop(workers, 0);
      for (SimTime& s : slop) {
        if (rng.NextDouble() < 0.33) s = MsToTicks(rng.Uniform(0.0, 5.0));
      }
      const int expected = naive.OnQueryArrival(q, states);
      EXPECT_EQ(adhoc.OnQueryArrival(q, states), expected)
          << "trial " << trial << " call " << call << " (vector view)";
      const StableVectorView shuffled_view(states, no_slop, trial);
      const StableVectorView indexed_view(by_rank, slop, trial);
      EXPECT_EQ(cached.OnQueryArrival(q, shuffled_view), expected)
          << "trial " << trial << " call " << call << " (stable view)";
      EXPECT_EQ(indexed.OnQueryArrival(q, indexed_view), expected)
          << "trial " << trial << " call " << call << " (indexed view)";
      if (::testing::Test::HasFailure()) return;
      if (expected == sched::kNoAssignment) {
        ++declined;
        continue;
      }
      // Step A binds a positive-slack worker; Step B only runs when none
      // is left.
      const auto& w = *std::find_if(
          states.begin(), states.end(),
          [expected](const auto& s) { return s.index == expected; });
      if (adhoc.SlackSec(w, q.model_id, q.batch) > 0.0) {
        ++step_a;
      } else {
        ++step_b;
      }
      if (plain.OnQueryArrival(q, states) != expected) ++locality_wins;
    }
  }
  // Non-vacuous: every branch of Algorithm 2 was exercised, on wide
  // layouts too.
  EXPECT_GT(step_a, 1000u);
  EXPECT_GT(step_b, 1000u);
  EXPECT_GT(declined, 0u);
  EXPECT_GT(locality_wins, 100u);
  EXPECT_GT(wide, 100u);
}

// A PARIS-style wide layout: `n` partitions cycling the sizes
// {1, 2, 3, 4, 7} from `shift`, sorted as the server sorts them.
std::vector<int> WideLayout(int n, int shift) {
  const int cycle[] = {1, 2, 3, 4, 7};
  std::vector<int> layout;
  for (int i = 0; i < n; ++i) layout.push_back(cycle[(i + shift) % 5]);
  return layout;
}

const std::vector<int>& WideSizes() {
  static const std::vector<int> kSizes = {1, 2, 3, 4, 7};
  return kSizes;
}

// Offered load: `factor` x the layout's aggregate service rate at batch 8,
// averaged over the repertoire's models.
double RateFor(const profile::ModelRepertoire& rep,
               const std::vector<int>& layout, double factor) {
  double capacity = 0.0;
  for (const int gpcs : layout) {
    for (int m = 0; m < rep.size(); ++m) {
      capacity += rep.profile(m).ThroughputQps(gpcs, 8) / rep.size();
    }
  }
  return factor * capacity;
}

sched::ElsaParams WideParams() {
  sched::ElsaParams params;
  params.swap_cost_sec = 250e-6;
  params.locality_tie_sec = 0.002;
  return params;
}

// The engine on a wide server, where ELSA decides from the live view's
// free-at index: 130 partitions over {1, 2, 3, 4, 7}, noisy latencies
// whose ground truth also runs 7% over the profile (so in-flight queries
// overrun their estimates and the index keys are loose lower bounds),
// offered above the knee so Step B decides most arrivals, with the swap
// charge and locality tie-break on and one mid-run reconfiguration to
// another wide layout.
TEST(EngineGolden, WideParisLayoutMatchesReference) {
  const auto rep = MakeRepertoire(3, WideSizes());
  ServerConfig config;
  config.partition_gpcs = WideLayout(130, 0);
  config.sla_target = MsToTicks(8.0);
  config.latency_noise_sigma = 0.25;
  config.seed = 0x51DE;
  config.model_swap_cost = UsToTicks(250.0);
  const sched::ElsaParams params = WideParams();
  const double rate = RateFor(rep, config.partition_gpcs, 1.6);
  const auto trace = MakeTraceFor(rep, 8000, /*seed=*/0x51DE, rate);
  const auto streams =
      RunBoth(config, rep, Sched::kElsa, params, [&](auto& server) {
        server.InjectTrace(trace);
        server.AdvanceTo(trace.queries()[trace.size() / 2].arrival);
        server.BeginReconfigure(WideLayout(128, 2), MsToTicks(5.0));
        return server.Finish();
      });
  ExpectIdenticalRecords(streams, "wide");
  // Non-vacuous: both steps decided, Step B most arrivals, and the
  // reconfiguration stalled queries.
  const sched::ElsaScheduler probe(rep, config.sla_target, params);
  std::size_t step_b = 0;
  for (const Consultation& c : streams.production_log) {
    const workload::Query& q = trace.queries()[c.query];
    const auto& w = *std::find_if(
        c.states.begin(), c.states.end(),
        [&c](const auto& s) { return s.index == c.choice; });
    step_b += probe.SlackSec(w, q.model_id, q.batch) > 0.0 ? 0 : 1;
  }
  EXPECT_GT(step_b, streams.production_log.size() / 2);
  EXPECT_LT(step_b, streams.production_log.size());
  EXPECT_GT(CountStalled(streams.production), 0u);
}

// Runs the production ELSA on the engine's live view and, at every
// consultation, the full-scan oracle ELSA on a vector rebuilt from Get(i);
// any disagreement fails the test.  The oracle engine has no fault API,
// so this is how decisions under FailWorker, RecoverWorker and
// SetSlowdownFactor are pinned.
class ShadowElsa final : public sched::Scheduler {
 public:
  ShadowElsa(const profile::ModelRepertoire& rep, SimTime sla,
             const sched::ElsaParams& params)
      : elsa_(rep, sla, params), naive_(rep, sla, Knobs(params)) {}

  using Scheduler::OnQueryArrival;
  int OnQueryArrival(const workload::Query& query,
                     const sched::WorkerView& workers) override {
    states_.clear();
    bool any_failed = false;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      states_.push_back(workers.Get(i));
      any_failed = any_failed || states_.back().failed;
    }
    const int choice = elsa_.OnQueryArrival(query, workers);
    EXPECT_EQ(choice, naive_.OnQueryArrival(query, states_))
        << "query " << query.id;
    ++consultations;
    with_failures += any_failed ? 1 : 0;
    return choice;
  }
  bool UsesCentralQueue() const override { return false; }
  std::string name() const override { return "ELSA (shadowed)"; }

  std::size_t consultations = 0;
  std::size_t with_failures = 0;

 private:
  sched::ElsaScheduler elsa_;
  oracle::NaiveElsa naive_;
  std::vector<sched::WorkerState> states_;
};

TEST(EngineGolden, ShadowElsaAgreesThroughFaultsOnWideServer) {
  const auto rep = MakeRepertoire(3, WideSizes());
  ServerConfig config;
  config.partition_gpcs = WideLayout(141, 0);
  config.sla_target = MsToTicks(8.0);
  config.latency_noise_sigma = 0.25;
  config.seed = 0x5AD0;
  config.model_swap_cost = UsToTicks(250.0);
  ShadowElsa shadow(rep, config.sla_target, WideParams());
  InferenceServer server(config, rep, shadow);
  const double rate = RateFor(rep, config.partition_gpcs, 1.2);
  const auto trace = MakeTraceFor(rep, 8000, /*seed=*/0x5AD0, rate);
  const auto at = [&trace](double frac) {
    const double n = static_cast<double>(trace.size());
    return trace.queries()[static_cast<std::size_t>(frac * n)].arrival;
  };
  server.InjectTrace(trace);
  server.AdvanceTo(at(0.2));
  for (const int w : {5, 60, 61, 62, 139}) server.FailWorker(w);
  server.FailWorker(140, /*requeue_orphans=*/false);
  server.AdvanceTo(at(0.4));
  server.SetSlowdownFactor(1.6);
  server.AdvanceTo(at(0.6));
  server.RecoverWorker(5);
  server.RecoverWorker(61);
  server.FailWorker(100);
  server.AdvanceTo(at(0.8));
  server.SetSlowdownFactor(1.0);
  for (const int w : {60, 62, 100, 139, 140}) server.RecoverWorker(w);
  const auto result = server.Finish();
  EXPECT_EQ(server.num_failed_workers(), 0);
  EXPECT_GE(shadow.consultations, trace.size());
  EXPECT_GT(shadow.with_failures, trace.size() / 4);
  std::size_t failed = 0;
  for (const QueryRecord& r : result.records) failed += r.failed ? 1 : 0;
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace pe::sim
