#include "spans.h"

#include <utility>

namespace perfbench {

int Tracer::Begin(std::string name, int server) {
  Span span;
  span.name = std::move(name);
  span.start_ns = ElapsedNs(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.server = server;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.dur_ns = ElapsedNs(origin_) - span.start_ns;
  open_.pop_back();
}

void Tracer::AddAccumulated(std::string name, std::int64_t dur_ns,
                            int server) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.server = server;
  span.dur_ns = dur_ns;
  span.accumulated = true;
  // Lay accumulated siblings end to end from the parent's start; they
  // all follow the parent in the span list.
  if (span.parent >= 0) {
    span.start_ns = spans_[static_cast<std::size_t>(span.parent)].start_ns;
    for (auto i = spans_.size(); i-- > static_cast<std::size_t>(span.parent);) {
      const Span& s = spans_[i];
      if (s.accumulated && s.parent == span.parent) span.start_ns += s.dur_ns;
    }
  }
  spans_.push_back(std::move(span));
}

std::map<std::string, std::int64_t> Tracer::SelfTimes(int root) const {
  const auto n = spans_.size();
  std::vector<bool> inside(n, false);
  std::vector<std::int64_t> self(n, 0);
  for (auto i = static_cast<std::size_t>(root); i < n; ++i) {
    const Span& s = spans_[i];
    inside[i] = static_cast<int>(i) == root ||
                (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
    if (!inside[i]) continue;
    self[i] += s.dur_ns;
    if (static_cast<int>(i) != root) {
      self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
    }
  }
  std::map<std::string, std::int64_t> by_name;
  for (auto i = static_cast<std::size_t>(root); i < n; ++i) {
    if (inside[i]) by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

pe::core::Json Tracer::ToChromeTrace() const {
  pe::core::Json events = pe::core::Json::Array();
  for (const Span& s : spans_) {
    pe::core::Json e = pe::core::Json::Object();
    e.Set("name", s.name);
    e.Set("cat", s.name.substr(0, s.name.find('.')));
    e.Set("ph", "X");
    e.Set("ts", static_cast<double>(s.start_ns) / 1e3);
    e.Set("dur", static_cast<double>(s.dur_ns) / 1e3);
    e.Set("pid", 1);
    e.Set("tid", s.accumulated ? 2 : 1);
    pe::core::Json args = pe::core::Json::Object();
    if (s.server >= 0) args.Set("server", s.server);
    if (s.accumulated) args.Set("accumulated", true);
    e.Set("args", std::move(args));
    events.Add(std::move(e));
  }
  pe::core::Json doc = pe::core::Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace perfbench
