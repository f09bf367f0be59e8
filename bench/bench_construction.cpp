/// \file bench_construction.cpp
/// \brief PERF1: incidence→adjacency construction throughput (the paper's
///        central operation) across graph families, scales, and the seven
///        operator pairs.
///
/// The paper reports no timings; this suite characterizes the
/// implementation the way a GABB-venue artifact would. Since PR 3 every
/// `BM_Construct_*` family point runs the **whole pipeline** per
/// iteration — sort-free incidence assembly plus the SpGEMM product —
/// and splits the two phases into `assembly_s` / `spgemm_s` counters
/// (average seconds per iteration). `edges_per_sec` (= items/s) is the
/// pipeline rate and `allocs_per_row` tracks heap traffic per adjacency
/// row. `BM_Generate_RMAT` times the R-MAT input generation alone.

#define I2A_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

#include "algebra/pairs.hpp"
#include "graph/incidence.hpp"
#include "sparse/spgemm.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace i2a;

/// Full pipeline per iteration: assembly (graph → Eout/Ein) then product
/// (A = Eᵀout ⊕.⊗ Ein), with per-phase wall timings split into counters.
template <typename P>
void construction_bench(benchmark::State& state, const P& p,
                        const graph::Graph& g) {
  std::uint64_t allocs = 0;
  double assembly_s = 0.0;
  double spgemm_s = 0.0;
  for (auto _ : state) {
    const auto before = bench::alloc_count();
    util::Timer phase;
    const auto inc = graph::incidence_arrays(g, p);
    assembly_s += phase.seconds();
    phase.reset();
    auto a = graph::adjacency_array(p, inc);
    spgemm_s += phase.seconds();
    benchmark::DoNotOptimize(a);
    allocs += bench::alloc_count() - before;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges"] = static_cast<double>(g.num_edges());
  state.counters["vertices"] = static_cast<double>(g.num_vertices());
  state.counters["edges_per_sec"] = benchmark::Counter(
      iters * static_cast<double>(g.num_edges()), benchmark::Counter::kIsRate);
  state.counters["assembly_s"] =
      benchmark::Counter(assembly_s, benchmark::Counter::kAvgIterations);
  state.counters["spgemm_s"] =
      benchmark::Counter(spgemm_s, benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_row"] =
      static_cast<double>(allocs) /
      (iters * static_cast<double>(g.num_vertices() > 0 ? g.num_vertices()
                                                        : 1));
}

void BM_Construct_RMAT_PlusTimes(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_PlusTimes)->DenseRange(8, 14, 2);

void BM_Construct_RMAT_MinPlus(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::MinPlus<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_MinPlus)->DenseRange(8, 14, 2);

void BM_Construct_RMAT_MaxMin(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  construction_bench(state, algebra::MaxMin<double>{}, g);
}
BENCHMARK(BM_Construct_RMAT_MaxMin)->DenseRange(8, 14, 2);

void BM_Construct_ER_PlusTimes(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto g = graph::gen::erdos_renyi(n, 8.0 / static_cast<double>(n), 5);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_ER_PlusTimes)->RangeMultiplier(4)->Range(256, 16384);

void BM_Construct_Bipartite_PlusTimes(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto g = graph::gen::random_bipartite(n, n, 8, 11);
  construction_bench(state, algebra::PlusTimes<double>{}, g);
}
BENCHMARK(BM_Construct_Bipartite_PlusTimes)
    ->RangeMultiplier(4)
    ->Range(256, 16384);

// Assembly only: graph → incidence arrays, no product: the sort-free
// identity-ramp build, undiluted.
void BM_Construct_Assembly_RMAT(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    auto inc = graph::incidence_arrays(g, p);
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Construct_Assembly_RMAT)->DenseRange(8, 14, 2);

// General COO→CSR assembly on a duplicate-heavy, shuffled buffer — the
// worst case for the two-pass engine (nothing is pre-grouped, every row
// needs the sort + fold pass). Entries/s in items/s; each iteration
// includes a copy of the buffer.
sparse::Coo<double> shuffled_dup_coo(index_t entries) {
  util::Xoshiro256 rng(29);
  const index_t nrows = entries / 8 > 0 ? entries / 8 : 1;
  sparse::Coo<double> coo(nrows, 256);
  coo.reserve(static_cast<std::size_t>(entries));
  for (index_t k = 0; k < entries; ++k) {
    coo.push(rng.between(0, nrows - 1), rng.between(0, 255),
             rng.uniform(0.1, 9.9));
  }
  return coo;
}

void BM_Construct_FromCoo(benchmark::State& state) {
  const auto master = shuffled_dup_coo(state.range(0));
  for (auto _ : state) {
    auto coo = master;
    auto m = sparse::Csr<double>::from_coo(std::move(coo),
                                           sparse::DupPolicy::kSum);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<index_t>(master.nnz()));
}
BENCHMARK(BM_Construct_FromCoo)->RangeMultiplier(4)->Range(16384, 262144);

// End-to-end: graph -> incidence arrays -> adjacency (includes the
// incidence-assembly cost a data pipeline pays). Same measurement as the
// pre-PR-3 suite, so this point is comparable across committed
// BENCH_construction.json revisions.
void BM_Construct_EndToEnd(benchmark::State& state) {
  const auto g = bench::rmat_graph(static_cast<int>(state.range(0)), 8, 7);
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    auto a = graph::build_adjacency(g, p);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_edges()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Construct_EndToEnd)->DenseRange(8, 14, 2);

// Input generation alone: the R-MAT edge source every BM_Construct_RMAT
// point and the end-to-end benchmark's set-up draw from. Edge factor 8,
// on a pool of 1 (no workers: the generator's serial path) or 4 threads;
// each iteration allocates and fills a fresh edge vector, as a caller
// does. Scale 18's 48 MiB buffer is above glibc's largest mmap threshold
// (32 MiB), so every iteration maps fresh pages and faults them in, as
// the end-to-end set-up does; scale 16's 12 MiB is reused from the heap
// after the first iterations and faults no more.
void BM_Generate_RMAT(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  index_t edges = 0;
  for (auto _ : state) {
    auto g = bench::rmat_graph(scale, 8, 7, &pool);
    edges = g.num_edges();
    benchmark::DoNotOptimize(g.edges().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * edges);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(edges),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Generate_RMAT)
    ->ArgNames({"scale", "threads"})
    ->ArgsProduct({{12, 16, 18}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv,
                                         "BENCH_construction.json");
}
