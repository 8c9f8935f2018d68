// The engine's per-query memory contract: once a trace is injected, an
// InferenceServer holds one QueryRecord per query and nothing else that
// grows with the query count -- no copy of the queries, no separate
// arrival cursor.  The records are the only per-query array (see the
// hot-path notes in sim/server.h).
//
// Measured with counting replacements of the global operator new/delete
// in this binary (hence a test binary of its own).  They sit on top of
// malloc, so ASan, UBSan and TSan, which interpose malloc rather than
// operator new, still see every allocation; no sanitizer build needs to
// skip the test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sim/server.h"
#include "workload/trace.h"

namespace {

// Bytes currently allocated through operator new.  Each block carries its
// size in a header sized to keep the payload max-aligned.
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedNew(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }

namespace pe::sim {
namespace {

std::int64_t LiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

profile::ProfileTable MakeProfile() {
  profile::ProfileTable t("toy", {1, 2, 7}, {8});
  t.Set(1, 8, {10e-3, 0.9});
  t.Set(2, 8, {6e-3, 0.8});
  t.Set(7, 8, {2e-3, 0.5});
  return t;
}

LatencyFn FixedLatency() {
  return [](int gpcs, int) {
    return gpcs == 1 ? 10e-3 : gpcs == 2 ? 6e-3 : 2e-3;
  };
}

std::vector<workload::Query> MakeQueries(std::size_t n) {
  std::vector<workload::Query> qs(n);
  for (std::size_t i = 0; i < n; ++i) {
    qs[i].id = i;
    qs[i].arrival = static_cast<SimTime>(i) * MsToTicks(0.25);
    qs[i].batch = 8;
  }
  return qs;
}

TEST(EngineMemory, RecordsAreTheOnlyPerQueryState) {
  profile::ModelRepertoire repertoire;
  repertoire.Register("toy", MakeProfile(), FixedLatency());
  ServerConfig config;
  config.partition_gpcs = {1, 1, 1, 1, 2, 2, 2, 7, 7, 7, 7, 7};
  config.sla_target = MsToTicks(15.0);
  config.seed = 1;
  sched::ElsaScheduler elsa(repertoire, config.sla_target);
  constexpr std::size_t kQueries = 100'000;
  const std::vector<workload::Query> queries = MakeQueries(kQueries);

  // Bytes the engine holds after InjectSpan, over what was live before it
  // was built.
  std::int64_t held = 0;
  {
    const std::int64_t before = LiveBytes();
    InferenceServer server(config, repertoire, elsa);
    server.InjectSpan(queries);
    held = LiveBytes() - before;
  }
  const auto records =
      static_cast<std::int64_t>(kQueries * sizeof(QueryRecord));
  // An O(workers) allowance for everything that is not a record (the
  // compiled profile, the calendar's buckets, per-worker state); one more
  // word per query (8 B x 100k = 800 kB) would exceed it many times over.
  const auto workers = static_cast<std::int64_t>(config.partition_gpcs.size());
  const std::int64_t allowance = 16 * 1024 + 1024 * workers;
  EXPECT_LE(held, records + allowance)
      << held << " B held for " << kQueries << " queries; a record is "
      << sizeof(QueryRecord) << " B";
  // The records themselves are held: the count cannot be vacuous.
  EXPECT_GE(held, records);

  // Draining keeps every query: one record each, ids intact.
  InferenceServer server(config, repertoire, elsa);
  server.InjectSpan(queries);
  const SimResult result = server.Finish();
  ASSERT_EQ(result.records.size(), kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    ASSERT_EQ(result.records[i].id, i);
    ASSERT_GT(result.records[i].finished, result.records[i].arrival);
  }
}

}  // namespace
}  // namespace pe::sim
