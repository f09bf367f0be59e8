/// \file test_construction_differential.cpp
/// \brief The sort-free assembly engine must be indistinguishable from
///        the stable-sort reference: `Csr::from_coo` vs
///        `csr_from_coo_reference` (csr_reference.hpp) across every
///        `DupPolicy`, on inputs with heavy duplicates, shuffled order,
///        empty rows, and empty matrices, compared bitwise (both fold a
///        (row, col) group's duplicates in push order, so even FP kSum
///        must agree bit for bit). The direct incidence assembly is
///        likewise pinned to the old COO + reference path. Generated
///        cases (seed from I2A_BUILD_SEED, printed) draw random shapes,
///        duplicate rates, orders and values, columns too wide for a
///        64-bit sort key included, and also run the build kernel on
///        pools {none, 1, 2, 4, 8}, which must give the same bytes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "csr_reference.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// Byte-identical: full-precision == on every component vector.
bool identical(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return i2a::test::csr_bitwise_equal(a, b);
}

constexpr sparse::DupPolicy kPolicies[] = {sparse::DupPolicy::kSum,
                                            sparse::DupPolicy::kKeepFirst};

/// Check the engine == reference for one COO recipe, across every
/// policy. `make` builds a fresh buffer per call because assembly
/// consumes it.
template <typename MakeCoo>
void check_against_reference(const MakeCoo& make) {
  for (const auto policy : kPolicies) {
    const auto ref = i2a::test::csr_from_coo_reference(make(), policy);
    CHECK(identical(sparse::Csr<double>::from_coo(make(), policy), ref));
    CHECK(ref.is_canonical());
  }
}

void test_heavy_duplicates() {
  // 12x9 grid, 900 entries: every cell collides many times over, random
  // full-precision reals so fold-order slips would flip bits.
  check_against_reference([] {
    util::Xoshiro256 rng(101);
    sparse::Coo<double> coo(12, 9);
    coo.reserve(900);
    for (int k = 0; k < 900; ++k) {
      coo.push(rng.between(0, 11), rng.between(0, 8), rng.uniform(-5.0, 5.0));
    }
    return coo;
  });
}

void test_shuffled_order() {
  // Entries generated row-major then Fisher–Yates shuffled: exercises
  // the scatter on maximally out-of-order input, duplicates included.
  check_against_reference([] {
    util::Xoshiro256 rng(202);
    sparse::Coo<double> coo(40, 33);
    coo.reserve(700);
    for (int k = 0; k < 700; ++k) {
      coo.push(rng.between(0, 39), rng.between(0, 32), rng.uniform(0.1, 9.9));
    }
    auto& e = coo.entries();
    util::Xoshiro256 shuf(203);
    for (std::size_t i = e.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(shuf.between(0, static_cast<index_t>(i) - 1));
      std::swap(e[i - 1], e[j]);
    }
    return coo;
  });
}

void test_empty_rows_and_tail() {
  // Tall matrix, entries confined to a few interior rows: leading,
  // interior, and trailing empty rows all get correct (equal) pointers.
  check_against_reference([] {
    util::Xoshiro256 rng(303);
    sparse::Coo<double> coo(64, 8);
    coo.reserve(120);
    const index_t rows[] = {5, 6, 31, 62};
    for (int k = 0; k < 120; ++k) {
      coo.push(rows[rng.between(0, 3)], rng.between(0, 7),
               rng.uniform(0.5, 2.5));
    }
    return coo;
  });
}

void test_empty_and_tiny_matrices() {
  check_against_reference([] { return sparse::Coo<double>(0, 0); });
  check_against_reference([] { return sparse::Coo<double>(17, 23); });
  check_against_reference([] {
    sparse::Coo<double> coo(1, 1);
    coo.push(0, 0, 4.5);
    return coo;
  });
  // One row, all entries duplicated onto two columns in push order the
  // policies must respect.
  check_against_reference([] {
    sparse::Coo<double> coo(1, 4);
    const double vals[] = {3.0, -1.0, 2.0, 7.0, -4.0, 0.5};
    for (int k = 0; k < 6; ++k) coo.push(0, k % 2, vals[k]);
    return coo;
  });
}

void test_already_sorted_fast_path() {
  // Strictly increasing, duplicate-free input takes the zero-copy exit;
  // it must still equal the reference exactly.
  check_against_reference([] {
    sparse::Coo<double> coo(10, 10);
    for (index_t r = 0; r < 10; ++r) {
      for (index_t c = r % 3; c < 10; c += 3) {
        coo.push(r, c, static_cast<double>(r * 10 + c) + 0.25);
      }
    }
    return coo;
  });
}

/// The old incidence assembly, reconstructed as an oracle: stage through
/// COO, assemble with the reference engine.
template <typename Draw>
graph::IncidencePair<double> incidence_via_reference(const graph::Graph& g,
                                                     const Draw& draw) {
  sparse::Coo<double> out(g.num_edges(), g.num_vertices());
  sparse::Coo<double> in(g.num_edges(), g.num_vertices());
  const auto& edges = g.edges();
  for (index_t e = 0; e < g.num_edges(); ++e) {
    out.push(e, edges[static_cast<std::size_t>(e)].src, draw(e, true));
    in.push(e, edges[static_cast<std::size_t>(e)].dst, draw(e, false));
  }
  return graph::IncidencePair<double>{
      i2a::test::csr_from_coo_reference(std::move(out),
                                         sparse::DupPolicy::kKeepFirst),
      i2a::test::csr_from_coo_reference(std::move(in),
                                         sparse::DupPolicy::kKeepFirst)};
}

void test_incidence_direct_vs_reference() {
  util::ThreadPool pool1(1), pool4(4);
  util::Xoshiro256 rng(404);
  const algebra::PlusTimes<double> p;
  for (int t = 0; t < 10; ++t) {
    // Multigraphs with parallel edges, self-loops, isolated vertices —
    // plus the empty graph and the edgeless graph.
    const auto g = t == 0 ? graph::Graph(0)
                   : t == 1
                       ? graph::Graph(5)
                       : graph::gen::random_multigraph(
                             rng.between(2, 12), rng.between(1, 40), rng.next());
    const auto unit = [](index_t, bool) { return 1.0; };
    const auto ref = incidence_via_reference(g, unit);
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &pool1, &pool4}) {
      const auto inc = graph::incidence_arrays(g, p, pool);
      CHECK(identical(inc.eout, ref.eout));
      CHECK(identical(inc.ein, ref.ein));
      CHECK(inc.eout.is_canonical() && inc.ein.is_canonical());
    }
  }
}

void test_weighted_incidence_direct_vs_reference() {
  util::ThreadPool pool4(4);
  util::Xoshiro256 rng(505);
  const algebra::MinPlus<double> p;
  for (int t = 0; t < 5; ++t) {
    auto g = graph::gen::random_multigraph(rng.between(2, 10),
                                           rng.between(1, 30), rng.next());
    graph::gen::randomize_weights(g, 0.25, 4.0, rng.next());
    const auto& edges = g.edges();
    const auto draw = [&](index_t e, bool is_out) {
      return is_out ? p.one() : edges[static_cast<std::size_t>(e)].weight;
    };
    const auto ref = incidence_via_reference(g, draw);
    const auto serial = graph::weighted_incidence_arrays(g, p);
    const auto pooled = graph::weighted_incidence_arrays(g, p, &pool4);
    CHECK(identical(serial.eout, ref.eout));
    CHECK(identical(serial.ein, ref.ein));
    CHECK(identical(pooled.eout, ref.eout));
    CHECK(identical(pooled.ein, ref.ein));
  }
}

/// The build kernel over a buffer's entries on `pool`, with the
/// duplicate operator `from_coo` uses for `policy`.
sparse::Csr<double> build_on_pool(const sparse::Coo<double>& coo,
                                  sparse::DupPolicy policy,
                                  util::ThreadPool* pool) {
  const auto& e = coo.entries();
  return sparse::detail::build_csr(
      coo.nrows(), coo.ncols(), static_cast<index_t>(e.size()),
      [&](index_t k) { return e[static_cast<std::size_t>(k)]; },
      [policy](double acc, double v) {
        return policy == sparse::DupPolicy::kSum ? acc + v : acc;
      },
      pool);
}

/// One generated buffer: a random shape (wide columns in some cases),
/// a random number of entries, a random duplicate rate (entries squeezed
/// onto few rows and columns) and a random order, with full-precision
/// reals.
sparse::Coo<double> generated_coo(util::Xoshiro256& rng) {
  const index_t wide = index_t{1} << 58;
  const index_t nrows = rng.between(1, 300);
  const index_t ncols = rng.between(0, 3) == 0 ? wide + rng.between(0, 1000)
                                               : rng.between(1, 300);
  const index_t nnz = rng.between(0, 3) == 0 ? rng.between(64, 4000)
                                             : rng.between(0, 200);
  const index_t row_range = rng.between(1, nrows);
  const index_t col_range =
      rng.between(0, 1) == 0 ? rng.between(1, std::min<index_t>(8, ncols))
                             : ncols;
  sparse::Coo<double> coo(nrows, ncols);
  for (index_t k = 0; k < nnz; ++k) {
    coo.push(rng.between(0, row_range - 1),
             ncols - 1 - rng.between(0, col_range - 1),
             rng.uniform(-8.0, 8.0));
  }
  // Some buffers arrive in row-major order: with their duplicates (rows
  // ordered, columns not strictly), or without (the copy-through path).
  auto& e = coo.entries();
  const auto order = rng.between(0, 3);
  if (order >= 2) {
    std::stable_sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
  }
  if (order == 3) {
    e.erase(std::unique(e.begin(), e.end(),
                        [](const auto& a, const auto& b) {
                          return a.row == b.row && a.col == b.col;
                        }),
            e.end());
  }
  return coo;
}

void test_generated_against_reference(std::uint64_t seed) {
  util::ThreadPool pool1(1), pool2(2), pool4(4), pool8(8);
  util::ThreadPool* const pools[] = {&pool1, &pool2, &pool4, &pool8};
  util::Xoshiro256 rng(seed);
  for (int t = 0; t < 60; ++t) {
    const auto coo = generated_coo(rng);
    check_against_reference([&] { return coo; });
    for (const auto policy : kPolicies) {
      const auto serial = build_on_pool(coo, policy, nullptr);
      for (util::ThreadPool* pool : pools) {
        CHECK(identical(build_on_pool(coo, policy, pool), serial));
      }
    }
  }
  // The wide shape that a 64-bit key cannot hold: 3 rows × 2^58
  // columns, 64 entries (6 slot bits), duplicates on two columns.
  check_against_reference([] {
    util::Xoshiro256 r(606);
    sparse::Coo<double> coo(3, index_t{1} << 58);
    for (int k = 0; k < 64; ++k) {
      coo.push(r.between(0, 2), (index_t{1} << 58) - 1 - r.between(0, 1),
               r.uniform(-8.0, 8.0));
    }
    return coo;
  });
}

void test_coo_reserve() {
  sparse::Coo<double> coo(4, 4);
  coo.reserve(16);
  const auto cap = coo.entries().capacity();
  CHECK(cap >= 16);
  for (int k = 0; k < 16; ++k) coo.push(k % 4, k / 4, 1.0);
  CHECK_EQ(coo.entries().capacity(), cap);  // no reallocation after reserve
  CHECK_EQ(coo.nnz(), 16u);
}

}  // namespace

int main() {
  test_heavy_duplicates();
  test_shuffled_order();
  test_empty_rows_and_tail();
  test_empty_and_tiny_matrices();
  test_already_sorted_fast_path();
  test_incidence_direct_vs_reference();
  test_weighted_incidence_direct_vs_reference();
  test_coo_reserve();
  const std::uint64_t seed = i2a::test::env_seed("I2A_BUILD_SEED", 20261019);
  std::printf("test_construction_differential: seed %llu (I2A_BUILD_SEED)\n",
              static_cast<unsigned long long>(seed));
  test_generated_against_reference(seed);
  return TEST_MAIN_RESULT();
}
