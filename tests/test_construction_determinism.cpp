/// \file test_construction_determinism.cpp
/// \brief The construction pipeline must be bit-deterministic end to end:
///        `transpose`, the direct incidence assembly, the block-stream
///        generators, and `build_adjacency` all produce byte-identical
///        results under pool sizes {1, 2, 8} and serially — the
///        construction-side counterpart of test_spgemm_determinism.
///        Full-precision real values throughout, so any
///        chunking-dependent reorder would flip bits. `gen::rmat` is also
///        held byte for byte to the branching walk it replaced
///        (rmat_reference.hpp), and its argument checks are tested.

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "rmat_reference.hpp"
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

/// Whether `call()` throws std::invalid_argument.
template <typename F>
bool throws_invalid_argument(const F& call) {
  try {
    call();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
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

struct Quadrants {
  double a, b, c;
};

/// R-MAT quadrant probabilities for the oracle grid: the Graph500,
/// uniform and thirds splits, empty quadrants, a 1e-300 quadrant (cut-off
/// 1), a non-monotone sum (c < 0) and a NaN.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr Quadrants kQuadrants[] = {
    {0.57, 0.19, 0.19},  {0.25, 0.25, 0.25}, {1.0 / 3, 1.0 / 3, 1.0 / 3},
    {1.0, 0.0, 0.0},     {1e-300, 0.3, 0.3}, {0.6, 0.3, -0.2},
    {0.5, kNaN, 0.2}};

/// Random draws land next to a fixed cut-off with probability ~2^-52, so
/// the grid above cannot tell a cut-off that is off by one from a right
/// one. These probabilities put a, a + b or a + b + c (the other two
/// terms 0) exactly at, one ulp below and one ulp above k0 * 2^-53,
/// where k0 = next() >> 11 is the first draw of the seed's stream for
/// block `block` — the draw of that block's first edge's top level — so
/// every such slip flips that level's quadrant. Blocks 0-3 are the four
/// lanes of the first four-wide group.
std::vector<Quadrants> drawn_boundary_quadrants(std::uint64_t seed,
                                                index_t block) {
  auto rng = graph::gen::stream_for_block(seed, block);
  const double t0 = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  std::vector<Quadrants> out;
  for (const double t :
       {std::nextafter(t0, 0.0), t0, std::nextafter(t0, 1.0)}) {
    out.push_back({t, 0.0, 0.0});
    out.push_back({0.0, t, 0.0});
    out.push_back({0.0, 0.0, t});
  }
  return out;
}

/// K(t) is the number of draws k in [0, 2^53) with k * 2^-53 < t: every
/// k below it passes and none at or above it does. Checked at the
/// cut-off's two neighbours, so it pins K(t) exactly, including at the
/// clamps (t <= 0, NaN, t >= 1), whose neighbours no random draw reaches.
bool cutoff_is_exact(double t) {
  const std::uint64_t cut = graph::gen::detail::unit_cutoff(t);
  const auto unit = [](std::uint64_t k) {
    return static_cast<double>(k) * 0x1.0p-53;
  };
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  return cut <= kDraws && (cut == 0 || unit(cut - 1) < t) &&
         (cut == kDraws || !(unit(cut) < t));
}

void test_unit_cutoff_clamps() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double t : {-kInf, -1.0, -0.0, 0.0,
                         std::numeric_limits<double>::denorm_min(), 0.5,
                         std::nextafter(1.0, 0.0), 1.0, 2.0, kInf, kNaN}) {
    CHECK(cutoff_is_exact(t));
  }
}

/// `gen::rmat`'s cut-off walk against the branching walk, byte for byte,
/// at both walk widths (four-wide only where the CPU has AVX2), over
/// scales, edge factors, seeds, quadrant probabilities and pool sizes.
/// Up to 3 blocks of 4096 edges, every block is walked one-wide. Scale
/// 13 x 8 is 64 blocks: 16 groups of four in lanes, and at pool 3 chunks
/// of 6/6/4 whole groups. Scale 11 x 9 is 4.5 blocks: one group and a
/// partial block. At scale 18 x 8 the 32 MiB edge buffer reaches `gen::detail::kPopulateMinBytes`, so the pool
/// faults its pages in (`util::populate_pages`) before they are written.
void test_rmat_matches_reference_walk() {
  util::ThreadPool pool2(2), pool3(3), pool8(8);
  util::ThreadPool* pools[] = {nullptr, &pool2, &pool3, &pool8};
  std::vector<int> widths{1};
  if (graph::gen::detail::rmat_max_lanes() == 4) widths.push_back(4);
  std::printf("rmat reference walk: widths %s\n",
              widths.size() == 2 ? "1 and 4" : "1 only (no AVX2)");
  const auto matches = [&](int scale, index_t edge_factor, const Quadrants& q,
                           std::uint64_t seed, util::ThreadPool* pool,
                           const graph::Graph& want) {
    for (const int lanes : widths) {
      CHECK(same_edges(graph::gen::detail::rmat_at_width(
                           lanes, scale, edge_factor, q.a, q.b, q.c, seed,
                           pool),
                       want));
    }
  };
  struct Size {
    int scale;
    index_t edge_factor;
  };
  std::vector<Size> sizes;
  for (const int scale : {0, 1, 5, 9}) {
    for (const index_t edge_factor : {0, 1, 3, 17}) {
      sizes.push_back({scale, edge_factor});
    }
  }
  sizes.push_back({13, 8});
  sizes.push_back({11, 9});
  // Seed 2's first draw is >= 2^52, seeds 1 and 4's are below it, so
  // one ulp above k0 * 2^-53 is k0 + 1 for the first and between k0 and
  // k0 + 1 for the others (a floor in place of the ceiling would show).
  for (const std::uint64_t seed : {1u, 2u, 4u}) {
    std::vector<Quadrants> quadrants(std::begin(kQuadrants),
                                     std::end(kQuadrants));
    for (index_t block = 0; block < 4; ++block) {
      for (const auto& q : drawn_boundary_quadrants(seed, block)) {
        quadrants.push_back(q);
      }
    }
    for (const auto& q : quadrants) {
      CHECK(cutoff_is_exact(q.a));
      CHECK(cutoff_is_exact(q.a + q.b));
      CHECK(cutoff_is_exact(q.a + q.b + q.c));
    }
    for (const auto& [scale, edge_factor] : sizes) {
      for (const auto& q : quadrants) {
        const auto want = i2a::test::rmat_reference(scale, edge_factor, q.a,
                                                    q.b, q.c, seed);
        CHECK_EQ(want.num_edges(), (index_t{1} << scale) * edge_factor);
        for (util::ThreadPool* pool : pools) {
          matches(scale, edge_factor, q, seed, pool, want);
        }
      }
    }
  }
  static_assert((std::size_t{1} << 18) * 8 * sizeof(graph::Edge) >=
                graph::gen::detail::kPopulateMinBytes);
  const Quadrants graph500{0.57, 0.19, 0.19};
  matches(18, 8, graph500, 3, &pool8,
          i2a::test::rmat_reference(18, 8, 0.57, 0.19, 0.19, 3));
}

/// Scale outside [0, 62] (a shift past index_t's width, or a negative
/// vertex count at 63) and a negative edge factor (a huge resize) are
/// rejected before anything is allocated, as are a negative edge count
/// of `random_multigraph`, a negative degree of `random_bipartite`, a
/// negative vertex count of the other three generators and a
/// `random_bipartite` vertex count past index_t.
void test_rmat_rejects_bad_arguments() {
  const auto rejects = [](int scale, index_t edge_factor) {
    return throws_invalid_argument([&] {
      (void)graph::gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, 1);
    });
  };
  for (const int scale : {INT_MIN, -1, 63, 64, INT_MAX}) {
    CHECK(rejects(scale, 1));
  }
  CHECK(rejects(5, -1));
  CHECK(rejects(5, std::numeric_limits<index_t>::min()));
  CHECK(!rejects(0, 0));
  CHECK(!rejects(62, 0));
  CHECK_EQ(graph::gen::rmat(62, 0, 0.57, 0.19, 0.19, 1).num_vertices(),
           index_t{1} << 62);

  util::ThreadPool pool4(4);
  for (const index_t bad : {std::numeric_limits<index_t>::min(), index_t{-1}}) {
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_multigraph(16, bad, 1, &pool4); }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_bipartite(8, 8, bad, 1, &pool4); }));
  }
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool4}) {
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_multigraph(-5, 10, 1, pool); }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_bipartite(-3, 2, 4, 1, pool); }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_bipartite(2, -3, 4, 1, pool); }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::erdos_renyi(-4, 0.5, 1, pool); }));
    bool overflowed = false;
    try {
      (void)graph::gen::random_bipartite(
          std::numeric_limits<index_t>::max(), 1, 0, 1, pool);
    } catch (const std::overflow_error&) {
      overflowed = true;
    }
    CHECK(overflowed);
  }
  CHECK_EQ(graph::gen::random_multigraph(16, 0, 1).num_edges(), index_t{0});
  CHECK_EQ(graph::gen::random_bipartite(8, 8, 0, 1).num_edges(), index_t{0});
}

/// An edge stores 32-bit endpoints, so a generator whose edges could
/// name a vertex above 2^31 − 1 throws std::invalid_argument before it
/// allocates the edge list, while one with no edges to emit still
/// returns its isolated vertices. The largest storable id is accepted.
void test_generators_refuse_ids_above_edge_range() {
  const index_t past = (index_t{1} << 31) + 1;  // ids 0 .. 2^31
  util::ThreadPool pool4(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool4}) {
    CHECK(throws_invalid_argument([&] {
      (void)graph::gen::rmat(32, 1, 0.57, 0.19, 0.19, 1, pool);
    }));
    CHECK(throws_invalid_argument([&] {
      (void)graph::gen::rmat(62, 1, 0.57, 0.19, 0.19, 1, pool);
    }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::random_multigraph(past, 1, 1, pool); }));
    CHECK(throws_invalid_argument([&] {
      (void)graph::gen::random_bipartite(1, past - 1, 1, 1, pool);
    }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::erdos_renyi(past, 1e-30, 1, pool); }));

    CHECK_EQ(graph::gen::rmat(32, 0, 0.57, 0.19, 0.19, 1, pool).num_vertices(),
             index_t{1} << 32);
    CHECK_EQ(graph::gen::random_multigraph(past, 0, 1, pool).num_vertices(),
             past);
    const auto top = graph::gen::random_multigraph(past - 1, 64, 1, pool);
    CHECK_EQ(top.num_edges(), index_t{64});
    for (const graph::Edge& e : top.edges()) {
      CHECK(e.src >= 0 && e.dst >= 0);
    }
    const auto right = graph::gen::random_bipartite(1, past - 2, 4, 1, pool);
    CHECK_EQ(right.num_edges(), index_t{4});
    for (const graph::Edge& e : right.edges()) {
      CHECK_EQ(e.src, 0);
      CHECK(e.dst >= 1);
    }
  }
}

/// A NaN probability passes both of the Bernoulli sampler's range tests
/// (p <= 0, p >= 1), so it is rejected outright by the sampler and by
/// `erdos_renyi`, the generator that reaches it — before either looks
/// at its size (0 vertices, 0 cells).
void test_bernoulli_rejects_nan_p() {
  util::ThreadPool pool4(4);
  for (const index_t n : {index_t{0}, index_t{10}}) {
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::erdos_renyi(n, kNaN, 1); }));
    CHECK(throws_invalid_argument(
        [&] { (void)graph::gen::erdos_renyi(n, kNaN, 1, &pool4); }));
    CHECK(throws_invalid_argument([&] {
      util::Xoshiro256 rng(1);
      util::sample_bernoulli_indices(rng, n * n, kNaN, [](index_t) {});
    }));
  }
  CHECK(!throws_invalid_argument(
      [] { (void)graph::gen::erdos_renyi(10, 0.0, 1); }));
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
  test_transpose_pool_size_invariance();
  test_generators_pool_size_invariance();
  test_unit_cutoff_clamps();
  test_rmat_matches_reference_walk();
  test_rmat_rejects_bad_arguments();
  test_bernoulli_rejects_nan_p();
  test_generators_refuse_ids_above_edge_range();
  test_incidence_and_end_to_end_pool_size_invariance();
  return TEST_MAIN_RESULT();
}
