/// \file bench_spgemm_ablation.cpp
/// \brief PERF2: SpGEMM ablation — the engine's row kernels (Gustavson,
///        heap, and kAuto's width rule) against the dense full-semantics
///        baseline, and the per-edge fold of R-MAT incidence arrays,
///        across density, size and output width.
///
/// Every run lands in BENCH_spgemm.json (override with --benchmark_out),
/// with two machine-readable signals per point: items/s (semiring flops,
/// or edges for the incidence shape) and `allocs_per_row`, the global
/// operator-new count per output row — the proxy that proves the engine
/// performs zero per-row heap allocations.

#define I2A_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/incidence.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"

namespace {

using namespace i2a;
using sparse::SpGemmAlgo;

index_t flops_of(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  index_t flops = 0;
  for (index_t i = 0; i < a.nrows(); ++i) {
    for (const index_t k : a.row_cols(i)) flops += b.row_nnz(k);
  }
  return flops;
}

/// Runs one (engine, algo, n, density) ablation point, reporting flops/s
/// and the allocs-per-output-row proxy.
template <typename Product>
void spgemm_point(benchmark::State& state, index_t n, double density,
                  Product&& product) {
  const auto a = bench::random_matrix(n, n, density, 1);
  const auto b = bench::random_matrix(n, n, density, 2);
  const index_t flops = flops_of(a, b);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const auto before = bench::alloc_count();
    auto c = product(a, b);
    benchmark::DoNotOptimize(c);
    allocs += bench::alloc_count() - before;
  }
  state.SetItemsProcessed(state.iterations() * flops);
  state.counters["nnzA"] = static_cast<double>(a.nnz());
  state.counters["allocs_per_row"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * static_cast<double>(n));
}

/// Grid arguments are (n, expected nnz per row); density = nnz/row / n.
double grid_density(const benchmark::State& state) {
  return static_cast<double>(state.range(1)) /
         static_cast<double>(state.range(0));
}

void engine_point(benchmark::State& state, SpGemmAlgo algo) {
  const algebra::PlusTimes<double> p;
  spgemm_point(state, state.range(0), grid_density(state),
               [&](const auto& a, const auto& b) {
                 return sparse::spgemm(p, a, b, algo);
               });
}

void BM_SpGemm_Gustavson(benchmark::State& state) {
  engine_point(state, SpGemmAlgo::kGustavson);
}
void BM_SpGemm_Heap(benchmark::State& state) {
  engine_point(state, SpGemmAlgo::kHeap);
}
void BM_SpGemm_Auto(benchmark::State& state) {
  engine_point(state, SpGemmAlgo::kAuto);
}

// Ablation grid, as (n, nnz/row) — identical points for every kernel
// so the JSON carries the comparison directly:
//  - a density sweep at n = 1024 (~0.1%, 1%, 5%) and a size sweep at
//    ~1% (256, 2048);
//  - a dense-output point (n = 4096 at 64/row: the product is ~63% full);
//  - wide outputs past the 2^15-column dense-accumulator threshold
//    (n = 65,536 and 262,144 at 4–8/row).
#define I2A_ABLATION_GRID(bm) \
  BENCHMARK(bm)               \
      ->Args({1024, 1})       \
      ->Args({1024, 10})      \
      ->Args({1024, 50})      \
      ->Args({256, 3})        \
      ->Args({2048, 20})      \
      ->Args({4096, 64})      \
      ->Args({65536, 4})      \
      ->Args({65536, 8})      \
      ->Args({262144, 4})

I2A_ABLATION_GRID(BM_SpGemm_Gustavson);
I2A_ABLATION_GRID(BM_SpGemm_Heap);
I2A_ABLATION_GRID(BM_SpGemm_Auto);

// Dense full-semantics baseline (the paper's literal definition) — small
// sizes only; demonstrates why sparse shortcuts matter.
void BM_SpGemm_DenseBaseline(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = bench::random_matrix(n, n, 0.01, 1);
  const auto b = bench::random_matrix(n, n, 0.01, 2);
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    auto c = sparse::multiply_full_semantics(p, a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SpGemm_DenseBaseline)->Arg(128)->Arg(256)->Arg(512);

// The paper's product shape: A = Eᵀout ⊕.⊗ Ein over the incidence
// arrays of an R-MAT graph with edge factor 8 (so edges/8 vertices).
// Every incidence row holds exactly one entry, so kAuto runs the
// per-edge fold, as every `adjacency_array` caller does; the point
// refuses to time anything else. Items are edges, so items/s is edges/s.
void BM_SpGemm_IncidenceShape(benchmark::State& state) {
  const index_t edges = state.range(0);
  const int scale =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(edges / 8))) -
      1;
  const algebra::PlusTimes<double> p;
  const auto inc =
      graph::incidence_arrays(bench::rmat_graph(scale, 8, 3), p);
  if (!sparse::detail::row_singleton(inc.eout) ||
      !sparse::detail::row_singleton(inc.ein)) {
    state.SkipWithError("incidence operands are not row singletons");
    return;
  }
  const index_t vertices = inc.eout.ncols();
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const auto before = bench::alloc_count();
    auto c = sparse::spgemm_at_b(p, inc.eout, inc.ein, SpGemmAlgo::kAuto);
    benchmark::DoNotOptimize(c);
    allocs += bench::alloc_count() - before;
  }
  state.SetItemsProcessed(state.iterations() * edges);
  state.counters["allocs_per_row"] =
      static_cast<double>(allocs) / (static_cast<double>(state.iterations()) *
                                     static_cast<double>(vertices));
}
BENCHMARK(BM_SpGemm_IncidenceShape)->RangeMultiplier(4)->Range(1024, 65536);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv, "BENCH_spgemm.json");
}
