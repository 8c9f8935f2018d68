// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced phases for the per-layer metrics and writes the spans to
// DIR/trace_<workload>_<seed>.json (Chrome Trace Event JSON).  The last
// stdout line is {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the environment stamp and the record-stream hash.
// See ../README.md for every metric's definition.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/result_io.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pe::core::Json;

constexpr int kMinPhases = 2;
constexpr double kFirstSetupSeconds = 0.2;
constexpr double kSetupShare = 0.1;
constexpr int kTracedSetups = 5;
constexpr double kMaxUnaccounted = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out = ".";
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The processor brand string, from CPUID (no file outside the checkout
// is read).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json EnvStamp(int jobs) {
  Json env = Json::Object();
  env.Set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  env.Set("compiler", "clang " __clang_version__);
#else
  env.Set("compiler", "gcc " __VERSION__);
#endif
  env.Set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  env.Set("cpu", CpuModel());
  env.Set("jobs", jobs);
  return env;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// Runs untraced phases until `seconds` have passed, and at least
// kMinPhases.  Set-up is repeated before every phase for a tenth of the
// previous phase's time: the host's speed drifts over seconds, so
// setup_s must sample the same stretch of the run as sim_qps.
std::vector<PhaseResult> Measure(Workload& w, double seconds,
                                 std::vector<double>& setups) {
  std::vector<PhaseResult> phases;
  const auto start = Clock::now();
  double setup_budget = kFirstSetupSeconds;
  while (static_cast<int>(phases.size()) < kMinPhases ||
         Seconds(ElapsedNs(start)) < seconds) {
    const auto setup_start = Clock::now();
    do {
      const auto t0 = Clock::now();
      w.Setup();
      setups.push_back(Seconds(ElapsedNs(t0)));
    } while (Seconds(ElapsedNs(setup_start)) < setup_budget);
    phases.push_back(w.Phase(nullptr, w.jobs()));
    setup_budget = kSetupShare * Seconds(phases.back().host_ns);
  }
  return phases;
}

std::vector<double> PhaseQps(const std::vector<PhaseResult>& phases) {
  std::vector<double> qps;
  for (const PhaseResult& p : phases) {
    qps.push_back(static_cast<double>(p.queries) / Seconds(p.host_ns));
  }
  return qps;
}

// Output checks across phases: every phase passes its own checks and
// every phase of one seed yields the same record stream.
class Verdict {
 public:
  void Add(const PhaseResult& p, const std::string& label) {
    attempted_ += p.pipelines;
    bool ok = p.errors.empty();
    for (const std::string& e : p.errors) errors_.push_back(label + ": " + e);
    if (!hash_) {
      hash_ = p.outcome.hash;
      outcome_ = p.outcome;
    } else if (p.outcome.hash != *hash_) {
      errors_.push_back(label + ": record-stream hash " +
                        Hex(p.outcome.hash) + " differs from " + Hex(*hash_));
      ok = false;
    }
    if (!ok) failed_ += p.pipelines;
  }
  void AddError(const std::string& e) {
    errors_.push_back(e);
    ++failed_;
  }
  bool correct() const { return errors_.empty(); }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  std::uint64_t hash() const { return hash_.value_or(0); }
  const Outcome& outcome() const { return outcome_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::optional<std::uint64_t> hash_;
  Outcome outcome_;
  std::vector<std::string> errors_;
};

void SetMetric(Json& metrics, const std::string& name, double value,
               const char* unit) {
  Json m = Json::Object();
  m.Set("value", value);
  m.Set("unit", unit);
  metrics.Set(name, std::move(m));
}

// Median over traced phases of each per-phase layer value.
class LayerTable {
 public:
  void Add(const std::map<std::string, double>& phase) {
    for (const auto& [name, value] : phase) values_[name].push_back(value);
  }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// The per-layer values of one traced phase rooted at span `root`.
std::map<std::string, double> PhaseLayers(const Tracer& tracer, int root,
                                          const PhaseResult& p) {
  const auto self = tracer.SelfTimes(root);
  const auto s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : Seconds(it->second);
  };
  std::map<std::string, double> v = p.counts;
  const double queries = static_cast<double>(p.queries);
  v["workload.gen_s"] = s("workload.gen");
  v["fleet.route_s"] = s("fleet.route");
  v["fleet.route_ns_per_query"] = s("fleet.route") * 1e9 / queries;
  v["fleet.split_s"] = s("fleet.split");
  v["fleet.stats_s"] = s("fleet.stats");
  v["fleet.fault_plan_s"] = s("fleet.resolve_faults");
  v["fleet.faulted_self_s"] = s("fleet.simulate_faults");
  v["online.replan_s"] = s("online.replan");
  v["sim.self_s"] = s("sim.server");
  v["sim.self_ns_per_query"] = s("sim.server") * 1e9 / queries;
  v["sim.stats_s"] = s("sim.stats");
  v["sched.decide_s"] = s("sched.decide");
  const double calls = v["sched.decisions"] + v["sched.requeues"];
  v["sched.ns_per_decision"] =
      calls > 0 ? s("sched.decide") * 1e9 / calls : 0.0;
  v["core.report_s"] = s("core.report");
  const Span& phase = tracer.spans()[static_cast<std::size_t>(root)];
  v["trace.unaccounted_frac"] =
      s("bench.phase") / Seconds(phase.dur_ns);
  std::vector<double> servers;
  for (std::size_t i = static_cast<std::size_t>(root);
       i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (span.name == "sim.server") servers.push_back(Seconds(span.dur_ns));
  }
  v["sim.server_s.median"] = Median(servers);
  v["sim.server_s.max"] =
      servers.empty() ? 0.0 : *std::max_element(servers.begin(), servers.end());
  return v;
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, reported on every workload (0 where the layer
// does not run).  Must match BENCHMARK.json's per_layer list.
constexpr LayerMetric kLayerMetrics[] = {
    {"workload.gen_s", "s"},
    {"workload.queries", "count"},
    {"profile.build_s", "s"},
    {"partition.plan_s", "s"},
    {"partition.plans", "count"},
    {"partition.workers_max", "count"},
    {"fleet.route_s", "s"},
    {"fleet.route_ns_per_query", "ns"},
    {"fleet.route_imbalance", "ratio"},
    {"fleet.split_s", "s"},
    {"fleet.stats_s", "s"},
    {"fleet.fault_plan_s", "s"},
    {"fleet.faulted_self_s", "s"},
    {"fleet.retried", "count"},
    {"fleet.rerouted", "count"},
    {"fleet.shed", "count"},
    {"fleet.goodput_ratio", "ratio"},
    {"fleet.p99_incident_ms", "ms"},
    {"online.replans", "count"},
    {"online.replan_s", "s"},
    {"sim.self_s", "s"},
    {"sim.self_ns_per_query", "ns"},
    {"sim.server_s.median", "s"},
    {"sim.server_s.max", "s"},
    {"sim.stats_s", "s"},
    {"sim.queue_delay_ms", "ms"},
    {"sim.utilization", "frac"},
    {"sim.model_swaps", "count"},
    {"sim.reconfig_stalled", "count"},
    {"sim.record_bytes", "B"},
    {"sim.latency_samples", "count"},
    {"sched.decisions", "count"},
    {"sched.decide_s", "s"},
    {"sched.ns_per_decision", "ns"},
    {"sched.requeues", "count"},
    {"core.report_s", "s"},
    {"core.lbt_qps", "qps"},
    {"trace.overhead_frac", "frac"},
    {"trace.unaccounted_frac", "frac"},
};

int Run(const Options& opt) {
  const auto workload = MakeWorkload(opt.workload, opt.seed);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  Workload& w = *workload;

  Verdict verdict;
  Json metrics = Json::Object();
  Tracer tracer;
  std::vector<double> setups;
  std::vector<double> phase_qps;
  if (!opt.trace) {
    const auto runs = Measure(w, opt.seconds, setups);
    for (const PhaseResult& p : runs) verdict.Add(p, "phase");
    phase_qps = PhaseQps(runs);
    if (w.jobs() != 1) verdict.Add(w.Phase(nullptr, 1), "jobs=1 replay");
    const Outcome& o = verdict.outcome();
    SetMetric(metrics, "sim_qps", Median(phase_qps), "qps");
    SetMetric(metrics, "setup_s", Median(setups), "s");
    SetMetric(metrics, "peak_rss_mb", PeakRssMb(), "MB");
    SetMetric(metrics, "p50_ms", o.p50_ms, "ms");
    SetMetric(metrics, "p99_ms", o.p99_ms, "ms");
    SetMetric(metrics, "p999_ms", o.p999_ms, "ms");
    SetMetric(metrics, "sla_attainment", o.sla_attainment, "frac");
    SetMetric(metrics, "completed_frac", o.completed_frac, "frac");
    SetMetric(metrics, "goodput_qps", o.goodput_qps, "qps");
  } else {
    w.Setup();
    LayerTable layers;
    for (int i = 0; i < kTracedSetups; ++i) {
      const int root = static_cast<int>(tracer.spans().size());
      for (const std::string& e : w.TraceSetup(tracer)) verdict.AddError(e);
      const auto self = tracer.SelfTimes(root);
      layers.Add({{"profile.build_s", Seconds(self.at("profile.build"))},
                  {"partition.plan_s", Seconds(self.at("partition.plan"))}});
    }
    // Untraced and traced phases alternate at one thread, so each pair
    // sees the same host speed and their ratio is the tracing overhead.
    std::vector<double> overhead;
    const auto start = Clock::now();
    while (static_cast<int>(overhead.size()) < kMinPhases ||
           Seconds(ElapsedNs(start)) < opt.seconds) {
      const PhaseResult base = w.Phase(nullptr, 1);
      verdict.Add(base, "untraced phase");
      const int root = static_cast<int>(tracer.spans().size());
      const PhaseResult traced = w.Phase(&tracer, 1);
      verdict.Add(traced, "traced phase");
      layers.Add(PhaseLayers(tracer, root, traced));
      overhead.push_back(1.0 - static_cast<double>(base.host_ns) /
                                   static_cast<double>(traced.host_ns));
      phase_qps.push_back(static_cast<double>(traced.queries) /
                          Seconds(traced.host_ns));
    }
    if (w.jobs() != 1) {
      verdict.Add(w.Phase(nullptr, w.jobs()),
                  "jobs=" + std::to_string(w.jobs()) + " run");
    }
    layers.Add({{"sim.latency_samples",
                 static_cast<double>(verdict.outcome().latency_samples)},
                {"trace.overhead_frac", Median(overhead)}});
    for (const LayerMetric& m : kLayerMetrics) {
      SetMetric(metrics, m.name, layers.Get(m.name), m.unit);
    }
    // The layer self times must account for the traced phase.
    if (layers.Get("trace.unaccounted_frac") > kMaxUnaccounted) {
      verdict.AddError("layer spans leave over 5% of the phase unaccounted");
    }
  }

  Json info = Json::Object();
  info.Set("workload", opt.workload);
  info.Set("seed", opt.seed);
  info.Set("trace", opt.trace);
  Json qps = Json::Array();
  for (const double q : phase_qps) qps.Add(q);
  info.Set("phase_qps", std::move(qps));
  info.Set("setups", static_cast<int>(setups.size()));
  info.Set("hash", Hex(verdict.hash()));
  info.Set("latency_samples", verdict.outcome().latency_samples);
  info.Set("env", EnvStamp(w.jobs()));
  if (opt.trace) {
    Json doc = tracer.ToChromeTrace();
    doc.Set("otherData", info);
    const std::string path = opt.out + "/trace_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    try {
      pe::core::WriteJsonFile(path, doc);
      info.Set("trace_file", path);
    } catch (const std::exception& e) {
      verdict.AddError(std::string("writing the trace: ") + e.what());
    }
  }
  Json errors = Json::Array();
  for (const std::string& e : verdict.errors()) {
    std::cerr << "perfbench: check failed: " << e << "\n";
    errors.Add(e);
  }
  info.Set("errors", std::move(errors));
  std::cout << Json::Object().Set("perfbench", std::move(info)).Dump(0)
            << "\n";

  Json result = Json::Object();
  result.Set("correct", verdict.correct());
  result.Set("attempted", verdict.attempted());
  result.Set("failed", verdict.failed());
  result.Set("metrics", std::move(metrics));
  std::cout << result.Dump(0) << std::endl;
  return 0;
}

std::optional<Options> Parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      opt.trace = value == "1";
    } else if (key == "--out") {
      opt.out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build with assertions "
               "enabled (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report from a '"
              << PERFBENCH_BUILD_TYPE << "' build; Release only\n";
    return 3;
  }
#if defined(__GLIBC__)
  // A fixed threshold turns off glibc's dynamic one, so every large
  // buffer is mapped and unmapped with its owner and peak RSS tracks the
  // program's peak live memory.  Left dynamic, it tracked allocator
  // history instead: 180-245 MB from run to run on fleet_steady.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const auto opt = perfbench::Parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--out DIR]\n";
    return 2;
  }
  try {
    return perfbench::Run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
