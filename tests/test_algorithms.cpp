/// \file test_algorithms.cpp
/// \brief The downstream algorithm suite on small hand-checkable graphs:
///        BFS levels, Bellman–Ford vs APSP, transitive closure, PageRank
///        sanity, the triangle counter against an A·A oracle, and the
///        rejection of non-square arrays.

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "graph/algorithms/apsp.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/algorithms/pagerank.hpp"
#include "graph/algorithms/sssp.hpp"
#include "graph/algorithms/triangles.hpp"
#include "sparse/spgemm.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// The oracle the masked counter is compared against: C = A·A over +.×
/// is materialized in full, then summed only where A has an edge. Each
/// triangle is counted 6 times on the symmetric pattern (zero-element
/// entries and self-loops are normalized away by `pattern_of`).
template <typename T>
std::uint64_t count_triangles_aa(const sparse::Csr<T>& a, T zero = T{}) {
  const auto pat = graph::detail::pattern_of(a, zero);
  const auto c = sparse::spgemm(algebra::PlusTimes<double>{}, pat, pat);
  double total = 0.0;
  for (index_t i = 0; i < pat.nrows(); ++i) {
    for (const index_t j : pat.row_cols(i)) {
      total += c.at(i, j, 0.0);
    }
  }
  return static_cast<std::uint64_t>(total) / 6;
}

void test_bfs() {
  // Path 0→1→2→3 plus a shortcut 0→2; vertex 4 unreachable.
  graph::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 2);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  const auto lv = graph::bfs_levels(a, 0, 0.0);
  CHECK_EQ(lv[0], 0);
  CHECK_EQ(lv[1], 1);
  CHECK_EQ(lv[2], 1);  // via the shortcut
  CHECK_EQ(lv[3], 2);
  CHECK_EQ(lv[4], -1);
}

void test_sssp_and_apsp_agree() {
  graph::Graph g = graph::gen::erdos_renyi(24, 0.2, 17);
  graph::gen::randomize_weights(g, 0.5, 3.0, 18);
  const algebra::MinPlus<double> p;
  const auto a =
      graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
  const auto all = graph::apsp(a);
  for (index_t src = 0; src < 4; ++src) {
    const auto d = graph::sssp_bellman_ford(a, src);
    CHECK(!d.has_negative_cycle);  // nonnegative weights
    for (index_t v = 0; v < a.nrows(); ++v) {
      if (src == v) continue;  // APSP diagonal is pinned to 0
      const double x = d.dist[static_cast<std::size_t>(v)];
      const double y = all.at(src, v);
      CHECK(x == y || std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(x)));
    }
  }
}

void test_transitive_closure() {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  const auto r = graph::transitive_closure(a, 0.0);
  CHECK_EQ(r.at(0, 2), 1);  // two-hop path
  CHECK_EQ(r.at(0, 3), 0);
  CHECK_EQ(r.at(2, 0), 0);
}

void test_pagerank() {
  // Star into vertex 2: it must rank highest; ranks must sum to ~1.
  graph::Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(3, 2);
  g.add_edge(2, 0);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  const auto r = graph::pagerank(a, 0.85, 1e-10, 100);
  double sum = 0.0;
  for (const double x : r) sum += x;
  CHECK(std::abs(sum - 1.0) < 1e-6);
  CHECK(r[2] > r[0] && r[2] > r[1] && r[2] > r[3]);
}

void test_triangles() {
  // Two triangles sharing the edge 0-1: {0,1,2} and {0,1,3}; vertex 4
  // dangles off a non-triangle edge.
  graph::Graph und(5);
  const std::pair<int, int> edges[] = {{0, 1}, {0, 2}, {1, 2},
                                       {0, 3}, {1, 3}, {3, 4}};
  for (const auto& [u, v] : edges) {
    und.add_edge(u, v);
    und.add_edge(v, u);
  }
  const auto a = graph::build_adjacency(und, algebra::MaxTimes<double>{});
  CHECK_EQ(count_triangles_aa(a), 2u);
  CHECK_EQ(graph::count_triangles(a), 2u);

  // Random symmetric graphs: the counter must always agree with A·A.
  util::Xoshiro256 rng(77);
  for (int t = 0; t < 10; ++t) {
    const auto base = graph::gen::random_multigraph(10, 25, rng.next());
    graph::Graph sym(base.num_vertices());
    for (const auto& e : base.edges()) {
      if (e.src == e.dst) continue;
      sym.add_edge(e.src, e.dst);
      sym.add_edge(e.dst, e.src);
    }
    const auto s = graph::build_adjacency(sym, algebra::MaxTimes<double>{});
    CHECK_EQ(count_triangles_aa(s), graph::count_triangles(s));
  }
}

void test_sssp_negative_cycle() {
  // 0 →(1) 1 →(-3) 2 →(1) 1 closes a negative cycle; 2 →(1) 3 hangs off
  // it; vertex 4 is unreachable. Without detection the n-1 rounds leave
  // plausible-looking finite garbage at 1, 2, 3.
  constexpr double inf = std::numeric_limits<double>::infinity();
  graph::Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, -3.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const algebra::MinPlus<double> p;
  const auto a =
      graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
  const auto d = graph::sssp_bellman_ford(a, 0);
  CHECK(d.has_negative_cycle);
  CHECK_EQ(d.dist[0], 0.0);  // the source itself sits before the cycle
  CHECK_EQ(d.dist[1], -inf);
  CHECK_EQ(d.dist[2], -inf);
  CHECK_EQ(d.dist[3], -inf);  // downstream of the cycle: poisoned too
  CHECK_EQ(d.dist[4], inf);   // unreachable stays +inf

  // A negative cycle that the source cannot reach must not fire: 0 →(1) 1
  // is clean, 2 ⇄ 3 is negative but disconnected from 0.
  graph::Graph h(4);
  h.add_edge(0, 1, 1.0);
  h.add_edge(2, 3, -2.0);
  h.add_edge(3, 2, 1.0);
  const auto b =
      graph::adjacency_array(p, graph::weighted_incidence_arrays(h, p));
  const auto e = graph::sssp_bellman_ford(b, 0);
  CHECK(!e.has_negative_cycle);
  CHECK_EQ(e.dist[1], 1.0);
  CHECK_EQ(e.dist[2], inf);

  // A stored +inf entry is the min.+ zero element, not an edge
  // (Definition I.5): the -inf flood must not poison through it.
  sparse::Coo<double> coo(5, 5);
  coo.push(0, 1, 1.0);
  coo.push(1, 2, -3.0);
  coo.push(2, 1, 1.0);
  coo.push(1, 4, inf);  // explicit zero element: 4 stays unreachable
  const auto c = sparse::Csr<double>::from_coo(std::move(coo),
                                               sparse::DupPolicy::kKeepFirst);
  const auto f = graph::sssp_bellman_ford(c, 0);
  CHECK(f.has_negative_cycle);
  CHECK_EQ(f.dist[1], -inf);
  CHECK_EQ(f.dist[2], -inf);
  CHECK_EQ(f.dist[4], inf);
}

void test_source_validation() {
  graph::Graph g(3);
  g.add_edge(0, 1);
  const auto a = graph::build_adjacency(g, algebra::PlusTimes<double>{});
  bool threw = false;
  try {
    (void)graph::sssp_bellman_ford(a, 3);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)graph::sssp_bellman_ford(a, -1);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)graph::bfs_levels(a, 3, 0.0);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)graph::bfs_levels(a, -1, 0.0);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
}

void test_triangles_with_self_loops() {
  // One triangle {0,1,2} plus self-loops at 0 and 2. With diagonal
  // entries kept in the pattern, 0's loop manufactures spurious closed
  // walks (c.at(i,i) terms and inflated |N(i) ∩ N(j)| whenever i and j
  // are adjacent) — the regression both counters used to hit.
  graph::Graph g(3);
  const std::pair<int, int> sides[] = {{0, 1}, {1, 2}, {0, 2}};
  for (const auto& [u, v] : sides) {
    g.add_edge(u, v);
    g.add_edge(v, u);
  }
  g.add_edge(0, 0);
  g.add_edge(2, 2);
  const auto a = graph::build_adjacency(g, algebra::MaxTimes<double>{});
  CHECK_EQ(count_triangles_aa(a), 1u);
  CHECK_EQ(graph::count_triangles(a), 1u);

  // Self-loops alone make no triangles at all.
  graph::Graph h(2);
  h.add_edge(0, 0);
  h.add_edge(1, 1);
  h.add_edge(0, 1);
  h.add_edge(1, 0);
  const auto b = graph::build_adjacency(h, algebra::MaxTimes<double>{});
  CHECK_EQ(count_triangles_aa(b), 0u);
  CHECK_EQ(graph::count_triangles(b), 0u);

  // Random symmetric graphs *with loops kept*: the counters must agree
  // with each other and with the loop-stripped copy of the same graph.
  util::Xoshiro256 rng(123);
  for (int t = 0; t < 10; ++t) {
    const auto base = graph::gen::random_multigraph(10, 30, rng.next());
    graph::Graph withloops(base.num_vertices());
    graph::Graph noloops(base.num_vertices());
    for (const auto& e : base.edges()) {
      if (e.src == e.dst) {
        withloops.add_edge(e.src, e.dst);
        continue;
      }
      withloops.add_edge(e.src, e.dst);
      withloops.add_edge(e.dst, e.src);
      noloops.add_edge(e.src, e.dst);
      noloops.add_edge(e.dst, e.src);
    }
    const auto wl = graph::build_adjacency(withloops, algebra::MaxTimes<double>{});
    const auto nl = graph::build_adjacency(noloops, algebra::MaxTimes<double>{});
    const auto expected = count_triangles_aa(nl);
    CHECK_EQ(count_triangles_aa(wl), expected);
    CHECK_EQ(graph::count_triangles(wl), expected);
    CHECK_EQ(graph::count_triangles(nl), expected);
  }
}

void test_explicit_zero_entries_are_not_edges() {
  // A stored entry whose value equals the zero element is not an edge
  // (Definition I.5); pagerank and the triangle counters must agree
  // with the validators on that.
  sparse::Coo<double> with_zero(3, 3);
  with_zero.push(0, 1, 1.0);
  with_zero.push(1, 0, 1.0);
  with_zero.push(1, 2, 0.0);  // explicit zero: not an edge
  const auto a = sparse::Csr<double>::from_coo(std::move(with_zero));
  sparse::Coo<double> without(3, 3);
  without.push(0, 1, 1.0);
  without.push(1, 0, 1.0);
  const auto b = sparse::Csr<double>::from_coo(std::move(without));
  const auto ra = graph::pagerank(a, 0.85, 1e-12, 200);
  const auto rb = graph::pagerank(b, 0.85, 1e-12, 200);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    CHECK(std::abs(ra[i] - rb[i]) < 1e-12);
  }

  // Triangle {0,1,2} with one side stored as an explicit zero: no
  // triangle under the pattern rule.
  sparse::Coo<double> tri(3, 3);
  const std::pair<int, int> sides[] = {{0, 1}, {1, 2}, {0, 2}};
  for (const auto& [u, v] : sides) {
    const double w = (u == 0 && v == 2) ? 0.0 : 1.0;
    tri.push(u, v, w);
    tri.push(v, u, w);
  }
  const auto t = sparse::Csr<double>::from_coo(std::move(tri));
  CHECK_EQ(count_triangles_aa(t), 0u);
  CHECK_EQ(graph::count_triangles(t), 0u);
}

void test_non_square_arrays_rejected() {
  // An incidence-shaped array (rows ≠ columns) would have every
  // algorithm index a per-vertex array with a column id past its end.
  for (const auto& [nr, nc] : {std::pair<index_t, index_t>{3, 5}, {5, 3}}) {
    sparse::Coo<double> coo(nr, nc);
    coo.push(0, nc - 1, 1.0);
    coo.push(nr - 1, 0, 1.0);
    const auto a = sparse::Csr<double>::from_coo(std::move(coo));
    const auto rejects = [](const auto& run) {
      try {
        run();
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    CHECK(rejects([&] { (void)graph::bfs_levels(a, 0, 0.0); }));
    CHECK(rejects([&] { (void)graph::sssp_bellman_ford(a, 0); }));
    CHECK(rejects([&] { (void)graph::pagerank(a, 0.85, 1e-10, 100); }));
    CHECK(rejects([&] { (void)graph::apsp(a); }));
    CHECK(rejects([&] { (void)graph::transitive_closure(a, 0.0); }));
    CHECK(rejects([&] { (void)graph::count_triangles(a); }));
  }
}

}  // namespace

int main() {
  test_bfs();
  test_sssp_and_apsp_agree();
  test_transitive_closure();
  test_pagerank();
  test_triangles();
  test_triangles_with_self_loops();
  test_sssp_negative_cycle();
  test_source_validation();
  test_explicit_zero_entries_are_not_edges();
  test_non_square_arrays_rejected();
  return TEST_MAIN_RESULT();
}
