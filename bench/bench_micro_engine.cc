// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// roofline evaluation, profiling, PARIS derivation, MIG packing, and
// end-to-end simulated-query throughput.  ELSA's per-decision cost is
// measured on the engine's live view by bench_engine_throughput
// (`elsa_ns_per_decision`).
#include <benchmark/benchmark.h>

#include "core/paper_config.h"
#include "hw/cluster.h"
#include "partition/paris.h"
#include "perf/model_zoo.h"
#include "profile/profiler.h"
#include "workload/trace.h"

namespace {

using namespace pe;

void BM_RooflineModelEval(benchmark::State& state) {
  const auto model = perf::BuildResNet50();
  perf::RooflineEngine engine;
  int batch = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Time(model, 3, batch));
    batch = batch % 32 + 1;
  }
}
BENCHMARK(BM_RooflineModelEval);

void BM_ProfilerFullGrid(benchmark::State& state) {
  const auto model = perf::BuildMobileNetV1();
  profile::Profiler profiler;
  const auto config = profile::ProfilerConfig::Default(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.Profile(model, config));
  }
}
BENCHMARK(BM_ProfilerFullGrid);

void BM_ParisDerive(benchmark::State& state) {
  profile::Profiler profiler;
  const auto table = profiler.Profile(perf::BuildResNet50(),
                                      profile::ProfilerConfig::Default(64));
  workload::LogNormalBatchDist dist(6.0, 0.9, 32);
  partition::ParisPartitioner paris(table, dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(paris.Derive(48));
  }
}
BENCHMARK(BM_ParisDerive);

void BM_ClusterPack(benchmark::State& state) {
  hw::Cluster cluster(8);
  const std::vector<int> sizes = {7, 7, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Pack(sizes));
  }
}
BENCHMARK(BM_ClusterPack);

void BM_EndToEndSimulatedQueries(benchmark::State& state) {
  const core::MixTestbed tb(core::PaperConfig("resnet"));
  const auto plan = tb.PlanMixed().plan;
  const std::size_t num_queries = 2000;
  for (auto _ : state) {
    // Trace generation is part of the timed run, as it always was.
    auto scheduler = tb.MakeScheduler(core::SchedulerKind::kElsa);
    benchmark::DoNotOptimize(
        tb.Run(plan.instance_gpcs, *scheduler,
               tb.GenerateMix(500.0, num_queries, /*seed=*/1), /*seed=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(num_queries));
}
BENCHMARK(BM_EndToEndSimulatedQueries);

}  // namespace

BENCHMARK_MAIN();
