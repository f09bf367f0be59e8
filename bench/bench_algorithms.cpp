/// \file bench_algorithms.cpp
/// \brief PERF5: downstream algorithm suite on constructed adjacency
///        arrays — the consumers that justify building A in the first
///        place.
///
/// Masked triangle counting (A·A is never materialized), semiring
/// closures (APSP / reachability), and BFS/PageRank end-to-end on R-MAT
/// inputs.

#include <benchmark/benchmark.h>

#include "algebra/pairs.hpp"
#include "bench_common.hpp"
#include "graph/algorithms/apsp.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/algorithms/pagerank.hpp"
#include "graph/algorithms/sssp.hpp"
#include "graph/algorithms/triangles.hpp"
#include "graph/incidence.hpp"

namespace {

using namespace i2a;

sparse::Csr<double> symmetric_rmat_adjacency(int scale, index_t ef) {
  const auto base = bench::rmat_graph(scale, ef, 7);
  graph::Graph sym(base.num_vertices());
  for (const auto& e : base.edges()) {
    if (e.src == e.dst) continue;
    sym.add_edge(e.src, e.dst);
    sym.add_edge(e.dst, e.src);
  }
  return graph::build_adjacency(sym, algebra::MaxTimes<double>{});
}

void BM_Triangles_Masked(benchmark::State& state) {
  const auto a = symmetric_rmat_adjacency(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::count_triangles(a));
  }
  state.counters["nnz"] = static_cast<double>(a.nnz());
}
BENCHMARK(BM_Triangles_Masked)->DenseRange(8, 12, 2);

void BM_Apsp_MinPlusClosure(benchmark::State& state) {
  const index_t n = state.range(0);
  graph::Graph g = graph::gen::erdos_renyi(n, 4.0 / static_cast<double>(n), 3);
  graph::gen::randomize_weights(g, 0.5, 4.0, 11);
  const algebra::MinPlus<double> p;
  const auto a =
      graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::apsp(a));
  }
}
BENCHMARK(BM_Apsp_MinPlusClosure)->Arg(64)->Arg(128)->Arg(256);

void BM_TransitiveClosure_OrAnd(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto g = graph::gen::erdos_renyi(n, 2.0 / static_cast<double>(n), 5);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::transitive_closure(a, 0.0));
  }
}
BENCHMARK(BM_TransitiveClosure_OrAnd)->Arg(64)->Arg(128)->Arg(256);

void BM_Bfs(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 16, 7);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_levels(a, 0, 0.0));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Bfs)->DenseRange(10, 16, 2);

void BM_PageRank(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 16, 7);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::pagerank(a, 0.85, 1e-8, 50));
  }
}
BENCHMARK(BM_PageRank)->DenseRange(10, 14, 2);

void BM_Sssp_BellmanFord(benchmark::State& state) {
  const index_t n = state.range(0);
  graph::Graph g = graph::gen::erdos_renyi(n, 8.0 / static_cast<double>(n), 9);
  graph::gen::randomize_weights(g, 0.1, 2.0, 13);
  const algebra::MinPlus<double> p;
  const auto a =
      graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::sssp_bellman_ford(a, 0));
  }
}
BENCHMARK(BM_Sssp_BellmanFord)->RangeMultiplier(4)->Range(256, 4096);

}  // namespace

BENCHMARK_MAIN();
