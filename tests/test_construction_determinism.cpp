/// \file test_construction_determinism.cpp
/// \brief The construction pipeline must be bit-deterministic end to end:
///        `Csr::from_coo`, `transpose`, the direct incidence assembly,
///        the block-stream generators, and `build_adjacency` all
///        produce byte-identical results under pool sizes {1, 2, 8}
///        and serially — the construction-side counterpart of
///        test_spgemm_determinism. Full-precision real values throughout,
///        so any chunking-dependent reorder would flip bits.

#include <cstdint>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// Byte-identical: full-precision == on every component vector.
bool identical(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return i2a::test::csr_bitwise_equal(a, b);
}

bool same_edges(const graph::Graph& a, const graph::Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (std::size_t e = 0; e < a.edges().size(); ++e) {
    const auto& x = a.edges()[e];
    const auto& y = b.edges()[e];
    if (x.src != y.src || x.dst != y.dst || x.weight != y.weight) {
      return false;
    }
  }
  return true;
}

sparse::Coo<double> dup_heavy_coo(index_t nr, index_t nc, int nnz,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  coo.reserve(static_cast<std::size_t>(nnz));
  for (int k = 0; k < nnz; ++k) {
    coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
             rng.uniform(-9.9, 9.9));
  }
  return coo;
}

constexpr sparse::DupPolicy kPolicies[] = {
    sparse::DupPolicy::kSum, sparse::DupPolicy::kKeepFirst,
    sparse::DupPolicy::kKeepLast, sparse::DupPolicy::kMax,
    sparse::DupPolicy::kMin};

void test_from_coo_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto policy : kPolicies) {
    const auto serial =
        sparse::Csr<double>::from_coo(dup_heavy_coo(97, 41, 2300, 7), policy);
    for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      CHECK(identical(
          sparse::Csr<double>::from_coo(dup_heavy_coo(97, 41, 2300, 7),
                                        policy, pool),
          serial));
    }
  }
}

void test_transpose_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const auto a = sparse::Csr<double>::from_coo(dup_heavy_coo(211, 67, 3100, 9),
                                               sparse::DupPolicy::kSum);
  const auto serial_t = sparse::transpose(a);
  CHECK(serial_t.is_canonical());
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    CHECK(identical(sparse::transpose(a, pool), serial_t));
  }
}

void test_generators_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  util::ThreadPool* pools[] = {&pool1, &pool2, &pool8};

  const auto rmat_serial = graph::gen::rmat(9, 8, 0.57, 0.19, 0.19, 42);
  const auto er_serial = graph::gen::erdos_renyi(600, 0.01, 43);
  const auto multi_serial = graph::gen::random_multigraph(500, 9000, 44);
  const auto bip_serial = graph::gen::random_bipartite(300, 200, 7, 45);
  CHECK(rmat_serial.num_edges() == 512 * 8);
  CHECK(er_serial.num_edges() > 0);
  for (util::ThreadPool* pool : pools) {
    CHECK(same_edges(graph::gen::rmat(9, 8, 0.57, 0.19, 0.19, 42, pool),
                     rmat_serial));
    CHECK(same_edges(graph::gen::erdos_renyi(600, 0.01, 43, pool), er_serial));
    CHECK(same_edges(graph::gen::random_multigraph(500, 9000, 44, pool),
                     multi_serial));
    CHECK(same_edges(graph::gen::random_bipartite(300, 200, 7, 45, pool),
                     bip_serial));
  }

  auto weighted_serial = graph::gen::rmat(8, 4, 0.57, 0.19, 0.19, 46);
  graph::gen::randomize_weights(weighted_serial, 0.5, 3.5, 47);
  for (util::ThreadPool* pool : pools) {
    auto w = graph::gen::rmat(8, 4, 0.57, 0.19, 0.19, 46, pool);
    graph::gen::randomize_weights(w, 0.5, 3.5, 47, pool);
    CHECK(same_edges(w, weighted_serial));
  }
}

void test_incidence_and_end_to_end_pool_size_invariance() {
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const auto g = graph::gen::rmat(10, 8, 0.57, 0.19, 0.19, 48);
  const algebra::PlusTimes<double> p;

  const auto inc_serial = graph::incidence_arrays(g, p);
  CHECK(inc_serial.eout.is_canonical() && inc_serial.ein.is_canonical());
  CHECK_EQ(inc_serial.eout.nnz(), g.num_edges());
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto inc = graph::incidence_arrays(g, p, pool);
    CHECK(identical(inc.eout, inc_serial.eout));
    CHECK(identical(inc.ein, inc_serial.ein));
  }

  // Whole pipeline: generator → incidence → adjacency, byte-identical
  // for every pool size (generators included — the graph itself is a
  // pure function of the seed).
  const auto serial = graph::build_adjacency(g, p);
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const auto gp = graph::gen::rmat(10, 8, 0.57, 0.19, 0.19, 48, pool);
    CHECK(identical(graph::build_adjacency(gp, p, sparse::SpGemmAlgo::kAuto,
                                           pool),
                    serial));
  }
}

}  // namespace

int main() {
  test_from_coo_pool_size_invariance();
  test_transpose_pool_size_invariance();
  test_generators_pool_size_invariance();
  test_incidence_and_end_to_end_pool_size_invariance();
  return TEST_MAIN_RESULT();
}
