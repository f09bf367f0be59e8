#pragma once
/// \file bench_common.hpp
/// \brief Shared workload builders for the google-benchmark suites, plus
///        the machine-readable perf plumbing: a JSON-reporting main
///        (`run_benchmarks_json`, which records the i2a commit, build type,
///        feature switches and hardware thread count in the file's
///        context) and an opt-in global allocation counter
///        (`I2A_BENCH_COUNT_ALLOCS`) that turns heap traffic into a
///        benchmark counter — the allocs-per-row proxy the SpGEMM engine
///        work is measured by.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/failpoint.hpp"
#include "util/prng.hpp"

#ifdef I2A_BENCH_COUNT_ALLOCS
#include <atomic>
#include <cstdlib>
#include <new>

namespace i2a::bench {
inline std::atomic<std::uint64_t> g_alloc_count{0};

/// Number of global `operator new` calls so far; diff around a region to
/// count its allocations.
inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace i2a::bench

// Replaceable global allocation functions (one TU per bench binary, so
// defining them in this header is ODR-safe). Counting only — allocation
// itself stays malloc/free.
namespace i2a::bench::detail {
inline void* counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace i2a::bench::detail

namespace i2a::bench::detail {
inline void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
}  // namespace i2a::bench::detail

void* operator new(std::size_t size) {
  return i2a::bench::detail::counted_malloc(size);
}
void* operator new[](std::size_t size) {
  return i2a::bench::detail::counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return i2a::bench::detail::counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return i2a::bench::detail::counted_aligned_alloc(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // I2A_BENCH_COUNT_ALLOCS

namespace i2a::bench {

/// Drop-in BENCHMARK_MAIN replacement that records the run to a JSON
/// file (`--benchmark_out` still wins if the caller passes one), so the
/// perf trajectory is machine-readable from every invocation:
///
///   int main(int argc, char** argv) {
///     return i2a::bench::run_benchmarks_json(argc, argv,
///                                            "BENCH_spgemm.json");
///   }
inline int run_benchmarks_json(int argc, char** argv,
                               const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_arg;
  std::string fmt_arg;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    out_arg = std::string("--benchmark_out=") + default_out;
    fmt_arg = "--benchmark_out_format=json";
    args.push_back(out_arg.data());
    args.push_back(fmt_arg.data());
  }
  int ac = static_cast<int>(args.size());
  // Provenance: what i2a build produced these numbers. (The stock
  // `library_build_type` field describes Google Benchmark's own build.)
  benchmark::AddCustomContext("i2a_git_sha", I2A_BENCH_GIT_SHA);
  benchmark::AddCustomContext("i2a_build_type", I2A_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("i2a_failpoints",
                              I2A_FAILPOINTS_ENABLED ? "ON" : "OFF");
#ifdef I2A_CHECK_INVARIANTS
  benchmark::AddCustomContext("i2a_check_invariants", "ON");
#else
  benchmark::AddCustomContext("i2a_check_invariants", "OFF");
#endif
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Uniform random matrix with the given density and positive values.
/// Geometric gap skipping (util::sample_bernoulli_indices, shared with
/// graph::gen::erdos_renyi) makes this O(expected nnz) instead of
/// O(nr * nc) coin flips, so workload setup doesn't dwarf the kernels
/// being measured.
inline sparse::Csr<double> random_matrix(index_t nr, index_t nc,
                                         double density, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  // The nnz estimate converts each factor to double *before* multiplying,
  // so the reserve hint can't overflow in index_t arithmetic. The sampler
  // below needs the exact int64 cell count; checked_mul turns the
  // unsupported >= 2^63-cell regime into a loud error instead of a
  // silently empty matrix.
  const auto expected = static_cast<std::size_t>(
      density * static_cast<double>(nr) * static_cast<double>(nc));
  coo.reserve(expected + 16);
  if (nr > 0 && nc > 0) {
    util::sample_bernoulli_indices(rng, checked_mul(nr, nc), density,
                                   [&](index_t t) {
                                     coo.push(t / nc, t % nc,
                                              rng.uniform(0.5, 9.5));
                                   });
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

/// Standard Graph500-flavored R-MAT instance used across the suites.
inline graph::Graph rmat_graph(int scale, index_t edge_factor,
                               std::uint64_t seed,
                               util::ThreadPool* pool = nullptr) {
  return graph::gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed, pool);
}

}  // namespace i2a::bench
