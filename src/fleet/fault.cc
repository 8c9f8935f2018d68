#include "fleet/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace pe::fleet {

namespace {

// Disjoint stream tag for fault-schedule draws (servers hash their ids
// through ServerSeed, the router through RouterSeed; this one is ours).
constexpr std::uint64_t kFaultStreamSalt = 0xFA17ULL;

double ParseNumber(const std::string& key, const std::string& val) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(val, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != val.size() || !std::isfinite(parsed)) {
    throw std::invalid_argument("faults: bad value for '" + key + "': '" +
                                val + "'");
  }
  return parsed;
}

// A count-like override (count, retries) must be a whole number that fits
// in an int, so the later static_cast<int> neither truncates nor
// overflows.  Negative values are the "not set" sentinel, checked later.
void CheckWhole(const std::string& key, double v) {
  if (v >= 0.0 && (v != std::floor(v) ||
                   v > static_cast<double>(std::numeric_limits<int>::max()))) {
    throw std::invalid_argument("faults: '" + key +
                                "' must be a whole number <= 2147483647");
  }
}

// A *-ms override must convert to a SimTime tick count (MsToTicks) without
// overflowing.  2^63 is exact in a double, so the comparison is too.
void CheckMs(const std::string& key, double ms) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (ms * static_cast<double>(kNsPerMs) + 0.5 >= kLimit) {
    throw std::invalid_argument("faults: '" + key +
                                "' is past the range of simulated time");
  }
}

// a + k * b for event times built from overrides; throws instead of
// overflowing SimTime.
SimTime EventTime(SimTime a, SimTime k, SimTime b) {
  SimTime scaled = 0;
  SimTime sum = 0;
  if (__builtin_mul_overflow(k, b, &scaled) ||
      __builtin_add_overflow(a, scaled, &sum)) {
    throw std::invalid_argument(
        "faults: an event time built from 'at-ms', 'down-ms' and "
        "'stagger-ms' is past the range of simulated time");
  }
  return sum;
}

// Override bundle shared by every preset; negative sentinel = "not set"
// so presets can distinguish an explicit 0 (e.g. down-ms=0 => permanent)
// from an untouched default.
struct Overrides {
  double count = -1.0;
  double at_ms = -1.0;
  double down_ms = -1.0;
  double factor = -1.0;
  double stagger_ms = -1.0;
  double retries = -1.0;
  double backoff_ms = -1.0;
  double deadline_ms = -1.0;
  double repartition = -1.0;
  double downtime_ms = -1.0;
};

Overrides CollectOverrides(const FaultOptions& opts) {
  Overrides o;
  for (const auto& [key, val] : opts.overrides) {
    const double v = ParseNumber(key, val);
    if (key == "count") {
      CheckWhole(key, v);
      o.count = v;
    } else if (key == "at-ms") {
      CheckMs(key, v);
      o.at_ms = v;
    } else if (key == "down-ms") {
      CheckMs(key, v);
      o.down_ms = v;
    } else if (key == "factor") {
      o.factor = v;
    } else if (key == "stagger-ms") {
      CheckMs(key, v);
      o.stagger_ms = v;
    } else if (key == "retries") {
      CheckWhole(key, v);
      o.retries = v;
    } else if (key == "backoff-ms") {
      CheckMs(key, v);
      o.backoff_ms = v;
    } else if (key == "deadline-ms") {
      CheckMs(key, v);
      o.deadline_ms = v;
    } else if (key == "repartition") {
      o.repartition = v;
    } else if (key == "downtime-ms") {
      CheckMs(key, v);
      o.downtime_ms = v;
    } else {
      throw std::invalid_argument("faults: unknown key '" + key + "'");
    }
  }
  return o;
}

int ClampCount(double requested, int fallback, int limit) {
  int n = requested >= 0.0 ? static_cast<int>(requested) : fallback;
  if (n < 0) n = 0;
  return std::min(n, limit);
}

// `count` distinct server ids, ascending, drawn without replacement.
// Partial Fisher-Yates over the dense id range: O(num_servers) setup,
// deterministic in the rng stream.
std::vector<int> DrawServers(int count, int num_servers, Rng& rng) {
  std::vector<int> ids(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) ids[static_cast<std::size_t>(s)] = s;
  for (int k = 0; k < count; ++k) {
    const auto j = static_cast<std::size_t>(rng.UniformInt(k, num_servers - 1));
    std::swap(ids[static_cast<std::size_t>(k)], ids[j]);
  }
  ids.resize(static_cast<std::size_t>(count));
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server_crash";
    case FaultKind::kServerRecover:
      return "server_recover";
    case FaultKind::kWorkerFail:
      return "worker_fail";
    case FaultKind::kWorkerRecover:
      return "worker_recover";
    case FaultKind::kSlowdownBegin:
      return "slowdown_begin";
    case FaultKind::kSlowdownEnd:
      return "slowdown_end";
  }
  return "unknown";
}

void FaultPlan::Validate(const PlacementMap& placement) const {
  for (const auto& ev : events) {
    if (ev.time < 0) {
      throw std::invalid_argument("faults: negative event time");
    }
    if (ev.server < 0 || ev.server >= placement.num_servers()) {
      throw std::invalid_argument("faults: server " + std::to_string(ev.server) +
                                  " out of range");
    }
    if (ev.kind == FaultKind::kWorkerFail ||
        ev.kind == FaultKind::kWorkerRecover) {
      const auto& layout = placement.server(ev.server).partition_gpcs;
      // An unfilled layout (no planner pass yet) counts as one lane: the
      // layout is decided later and the driver re-checks at apply time.
      const int lanes = layout.empty() ? 1 : static_cast<int>(layout.size());
      if (ev.worker < 0 || ev.worker >= lanes) {
        throw std::invalid_argument(
            "faults: worker " + std::to_string(ev.worker) +
            " out of range for server " + std::to_string(ev.server));
      }
    }
    if (ev.kind == FaultKind::kSlowdownBegin && !(ev.factor > 0.0)) {
      throw std::invalid_argument("faults: slowdown factor must be > 0");
    }
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) {
      throw std::invalid_argument("faults: events not sorted by time");
    }
  }
  if (max_retries < 0) {
    throw std::invalid_argument("faults: max_retries must be >= 0");
  }
  if (retry_backoff < 0 || deadline < 0 || reconfig_downtime < 0) {
    throw std::invalid_argument("faults: negative duration knob");
  }
  // RetryDelay(max_retries) = retry_backoff << (max_retries - 1) must fit:
  // at most 62 doublings, and none that carries a bit past bit 62.
  if (max_retries > 0 && retry_backoff > 0 &&
      (max_retries > 63 ||
       retry_backoff >
           (std::numeric_limits<SimTime>::max() >> (max_retries - 1)))) {
    throw std::invalid_argument(
        "faults: the last retry's backoff (backoff x 2^(retries-1)) is past "
        "the range of simulated time; lower 'retries' or 'backoff-ms'");
  }
}

FaultOptions ParseFaultRef(const std::string& ref) {
  FaultOptions opts;
  const auto colon = ref.find(':');
  opts.name = ref.substr(0, colon);
  if (opts.name.empty()) {
    throw std::invalid_argument("faults: empty name in '" + ref + "'");
  }
  if (colon == std::string::npos) return opts;
  std::string rest = ref.substr(colon + 1);
  std::string::size_type begin = 0;
  for (;;) {
    const auto comma = rest.find(',', begin);
    const std::string pair = rest.substr(begin, comma - begin);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw std::invalid_argument("faults: expected key=val, got '" + pair +
                                  "'");
    }
    opts.overrides.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return opts;
}

const std::vector<std::string>& FaultPresetNames() {
  static const std::vector<std::string> names = {"serverloss", "flaky",
                                                 "brownout", "cascade"};
  return names;
}

FaultPlan ResolveFaultPlan(const FaultOptions& opts,
                           const PlacementMap& placement, SimTime span,
                           std::uint64_t seed) {
  if (span <= 0) {
    throw std::invalid_argument("faults: non-positive trace span");
  }
  const Overrides o = CollectOverrides(opts);

  FaultPlan plan;
  plan.name = opts.name;
  if (o.retries >= 0.0) plan.max_retries = static_cast<int>(o.retries);
  if (o.backoff_ms >= 0.0) plan.retry_backoff = MsToTicks(o.backoff_ms);
  if (o.deadline_ms >= 0.0) plan.deadline = MsToTicks(o.deadline_ms);
  if (o.repartition >= 0.0) plan.repartition = o.repartition != 0.0;
  if (o.downtime_ms >= 0.0) plan.reconfig_downtime = MsToTicks(o.downtime_ms);

  if (opts.name == "none") {
    if (!opts.overrides.empty()) {
      throw std::invalid_argument("faults: 'none' takes no overrides");
    }
    return plan;
  }

  const int num_servers = placement.num_servers();
  Rng rng(Mix64(seed ^ Mix64(kFaultStreamSalt)));
  const double span_d = static_cast<double>(span);

  if (opts.name == "serverloss") {
    const int count = ClampCount(o.count, 1, num_servers);
    const SimTime at = o.at_ms >= 0.0
                           ? MsToTicks(o.at_ms)
                           : static_cast<SimTime>(0.25 * span_d);
    const SimTime down = o.down_ms >= 0.0 ? MsToTicks(o.down_ms) : 0;
    for (const int s : DrawServers(count, num_servers, rng)) {
      plan.events.push_back({at, FaultKind::kServerCrash, s, -1, 1.0});
      if (down > 0) {
        plan.events.push_back({EventTime(at, 1, down),
                               FaultKind::kServerRecover, s, -1, 1.0});
      }
    }
  } else if (opts.name == "flaky") {
    const int count = ClampCount(o.count, 4, 64 * std::max(1, num_servers));
    const SimTime down = o.down_ms >= 0.0
                             ? MsToTicks(o.down_ms)
                             : static_cast<SimTime>(0.05 * span_d);
    for (int k = 0; k < count; ++k) {
      const int s = static_cast<int>(rng.UniformInt(0, num_servers - 1));
      const auto lanes = std::max<int>(
          1, static_cast<int>(placement.server(s).partition_gpcs.size()));
      const int w = static_cast<int>(rng.UniformInt(0, lanes - 1));
      const auto at =
          static_cast<SimTime>(rng.Uniform(0.1 * span_d, 0.9 * span_d));
      plan.events.push_back({at, FaultKind::kWorkerFail, s, w, 1.0});
      if (down > 0) {
        plan.events.push_back({EventTime(at, 1, down),
                               FaultKind::kWorkerRecover, s, w, 1.0});
      }
    }
  } else if (opts.name == "brownout") {
    const int count = ClampCount(o.count, 2, num_servers);
    const double factor = o.factor >= 0.0 ? o.factor : 2.0;
    if (!(factor > 0.0)) {
      throw std::invalid_argument("faults: brownout factor must be > 0");
    }
    const SimTime at = o.at_ms >= 0.0
                           ? MsToTicks(o.at_ms)
                           : static_cast<SimTime>(0.3 * span_d);
    const SimTime down = o.down_ms >= 0.0
                             ? MsToTicks(o.down_ms)
                             : static_cast<SimTime>(0.4 * span_d);
    for (const int s : DrawServers(count, num_servers, rng)) {
      plan.events.push_back({at, FaultKind::kSlowdownBegin, s, -1, factor});
      if (down > 0) {
        plan.events.push_back({EventTime(at, 1, down),
                               FaultKind::kSlowdownEnd, s, -1, 1.0});
      }
    }
  } else if (opts.name == "cascade") {
    const int count = ClampCount(o.count, 3, num_servers);
    const SimTime at0 = o.at_ms >= 0.0
                            ? MsToTicks(o.at_ms)
                            : static_cast<SimTime>(0.25 * span_d);
    const SimTime stagger = o.stagger_ms >= 0.0
                                ? MsToTicks(o.stagger_ms)
                                : static_cast<SimTime>(0.1 * span_d);
    const SimTime down = o.down_ms >= 0.0
                             ? MsToTicks(o.down_ms)
                             : static_cast<SimTime>(0.25 * span_d);
    const std::vector<int> victims = DrawServers(count, num_servers, rng);
    for (int k = 0; k < static_cast<int>(victims.size()); ++k) {
      const SimTime at = EventTime(at0, k, stagger);
      plan.events.push_back(
          {at, FaultKind::kServerCrash, victims[static_cast<std::size_t>(k)],
           -1, 1.0});
      if (down > 0) {
        plan.events.push_back({EventTime(at, 1, down),
                               FaultKind::kServerRecover,
                               victims[static_cast<std::size_t>(k)], -1, 1.0});
      }
    }
  } else {
    throw std::invalid_argument("faults: unknown preset '" + opts.name + "'");
  }

  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  plan.Validate(placement);
  return plan;
}

}  // namespace pe::fleet
