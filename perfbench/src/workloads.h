// The benchmark's three workloads, each driven only through the
// program's public entry points.  See ../README.md for why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

// Simulated outcome of one measured phase: a pure function of the seed.
struct Outcome {
  std::uint64_t injected = 0;   // queries offered (scheduled arrivals)
  std::uint64_t completed = 0;  // queries with a completed attempt
  std::uint64_t casualties = 0; // failed + shed
  // Latency from the scheduled arrival over completed queries after the
  // warm-up prefix (the first 10% of arrivals).
  std::uint64_t latency_samples = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  // Within-SLA completions / injected, after warm-up; failed and shed
  // queries count as misses.
  double sla_attainment = 0;
  double completed_frac = 0;  // completed / injected
  // Within-SLA completions per simulated second of arrivals, after
  // warm-up.
  double goodput_qps = 0;
  std::uint64_t hash = 0;  // FNV-1a over every record, in server order
};

struct PhaseResult {
  std::int64_t host_ns = 0;    // trace generation through the report
  std::uint64_t queries = 0;   // simulated queries injected
  int pipelines = 0;           // generate..report runs (lbt probes)
  Outcome outcome;
  // Output checks that failed, one line each; empty when correct.
  std::vector<std::string> errors;
  // Deterministic per-layer counts the program reports (model swaps,
  // retries, ...), keyed by per-layer metric name.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Threads the fleet workloads simulate with.
  virtual int jobs() const = 0;
  // Builds the program state (profiling, placement, planning, cluster);
  // the benchmark times this as set-up.
  virtual void Setup() = 0;
  // Times set-up's layers separately under `tracer` and prepares the
  // decorated program state the traced phases use.  Returns output-check
  // failures (e.g. a re-planned layout that differs from Setup's).
  virtual std::vector<std::string> TraceSetup(Tracer& tracer) = 0;
  // One measured phase.  With a tracer, every call into the program is a
  // span and servers replay one at a time; without, nothing is observed.
  virtual PhaseResult Phase(Tracer* tracer, int jobs) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench
