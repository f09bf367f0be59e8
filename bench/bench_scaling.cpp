/// \file bench_scaling.cpp
/// \brief PERF3: thread-scaling of the parallel adjacency construction.
///
/// Fixed R-MAT workload, worker count swept 1..hardware. Reports
/// edges/second so the speedup curve is directly readable from the
/// items_per_second column. The adjacency point passes kAuto, as every
/// `adjacency_array` caller does, so it times the pooled per-edge fold;
/// the square point times the engine's row-chunk Gustavson.

#include <benchmark/benchmark.h>

#include <thread>

#include "algebra/pairs.hpp"
#include "bench_common.hpp"
#include "graph/incidence.hpp"
#include "sparse/spgemm.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace i2a;

void BM_Scaling_AdjacencyConstruction(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto g = bench::rmat_graph(14, 16, 7);
  const algebra::PlusTimes<double> p;
  const auto inc = graph::incidence_arrays(g, p);
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    auto a = graph::adjacency_array(p, inc, sparse::SpGemmAlgo::kAuto, &pool);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_Scaling_SquareSpGemm(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto a = bench::random_matrix(4096, 4096, 0.004, 1);
  const auto b = bench::random_matrix(4096, 4096, 0.004, 2);
  const algebra::PlusTimes<double> p;
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    auto c = sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kGustavson, &pool);
    benchmark::DoNotOptimize(c);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

void thread_args(benchmark::internal::Benchmark* b) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 1; t <= hw; t *= 2) b->Arg(t);
  if ((hw & (hw - 1)) != 0) b->Arg(hw);  // include the odd max
}

BENCHMARK(BM_Scaling_AdjacencyConstruction)->Apply(thread_args)
    ->UseRealTime();
BENCHMARK(BM_Scaling_SquareSpGemm)->Apply(thread_args)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
