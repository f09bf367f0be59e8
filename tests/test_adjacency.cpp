/// \file test_adjacency.cpp
/// \brief is_adjacency_of on hand-built graphs with self-loops and
///        parallel edges, the incidence→adjacency construction, the
///        reverse-graph corollary, the rejection of out-of-range
///        edge endpoints, and `add_edge`'s range check before it narrows
///        an endpoint to the 32-bit edge ids.

#include <stdexcept>

#include "algebra/pairs.hpp"
#include "graph/graph.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "graph/validators.hpp"
#include "sparse/dense.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

/// 0→1 (twice, parallel), 1→1 (self-loop), 1→2, 2→0. Vertex 3 isolated.
graph::Graph hand_graph() {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  return g;
}

void test_validator_accepts_true_adjacency() {
  const auto g = hand_graph();
  // Hand-build the pattern: parallel edges collapse, self-loop on the
  // diagonal, nothing in row/column 3.
  sparse::Coo<double> coo(4, 4);
  coo.push(0, 1, 2.0);
  coo.push(1, 1, 1.0);
  coo.push(1, 2, 1.0);
  coo.push(2, 0, 1.0);
  const auto a = sparse::Csr<double>::from_coo(std::move(coo));
  CHECK(graph::is_adjacency_of(a, g, 0.0).ok);
}

void test_validator_rejects_wrong_patterns() {
  const auto g = hand_graph();
  {
    // Missing the self-loop.
    sparse::Coo<double> coo(4, 4);
    coo.push(0, 1, 2.0);
    coo.push(1, 2, 1.0);
    coo.push(2, 0, 1.0);
    const auto a = sparse::Csr<double>::from_coo(std::move(coo));
    const auto res = graph::is_adjacency_of(a, g, 0.0);
    CHECK(!res.ok);
    CHECK(!res.detail.empty());
  }
  {
    // Spurious entry at a non-edge.
    sparse::Coo<double> coo(4, 4);
    coo.push(0, 1, 2.0);
    coo.push(1, 1, 1.0);
    coo.push(1, 2, 1.0);
    coo.push(2, 0, 1.0);
    coo.push(3, 3, 1.0);
    const auto a = sparse::Csr<double>::from_coo(std::move(coo));
    CHECK(!graph::is_adjacency_of(a, g, 0.0).ok);
  }
  {
    // A stored entry whose value IS the zero element counts as absent.
    sparse::Coo<double> coo(4, 4);
    coo.push(0, 1, 2.0);
    coo.push(1, 1, 0.0);  // "edge" recorded as an explicit zero
    coo.push(1, 2, 1.0);
    coo.push(2, 0, 1.0);
    const auto a = sparse::Csr<double>::from_coo(std::move(coo));
    CHECK(!graph::is_adjacency_of(a, g, 0.0).ok);
  }
  {
    // Wrong shape.
    sparse::Coo<double> coo(3, 3);
    coo.push(0, 1, 1.0);
    const auto a = sparse::Csr<double>::from_coo(std::move(coo));
    CHECK(!graph::is_adjacency_of(a, g, 0.0).ok);
  }
}

void test_construction_matches_definition() {
  const auto g = hand_graph();
  for (const auto algo :
       {sparse::SpGemmAlgo::kGustavson, sparse::SpGemmAlgo::kHeap,
        sparse::SpGemmAlgo::kAuto}) {
    const auto a =
        graph::build_adjacency(g, algebra::PlusTimes<double>{}, algo);
    CHECK(graph::is_adjacency_of(a, g, 0.0).ok);
    // +.* with unit incidence values counts parallel edges.
    CHECK_EQ(a.at(0, 1, 0.0), 2.0);
    CHECK_EQ(a.at(1, 1, 0.0), 1.0);
  }
  // Full (dense) semantics agrees on a conforming pair.
  const algebra::MinPlus<double> p;
  const auto inc = graph::incidence_arrays(g, p);
  const auto full = sparse::multiply_full_semantics(
      p, sparse::transpose(inc.eout), inc.ein);
  CHECK(graph::is_adjacency_of(full, g, p.zero()).ok);
}

void test_reverse_adjacency() {
  util::Xoshiro256 rng(21);
  for (int t = 0; t < 20; ++t) {
    const auto g = graph::gen::random_multigraph(rng.between(2, 8),
                                                 rng.between(1, 20), rng.next());
    const algebra::MaxTimes<double> p;
    const auto inc = graph::incidence_arrays(g, p);
    const auto rev = graph::reverse_adjacency_array(p, inc);
    CHECK(graph::is_adjacency_of(rev, g.reverse(), p.zero()).ok);
  }
}

void test_weighted_incidence() {
  graph::Graph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);  // parallel edge with a better weight
  g.add_edge(1, 2, 7.0);
  const algebra::MinPlus<double> p;
  const auto a = graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
  // min.+ folds parallel edges to the cheapest weight.
  CHECK_EQ(a.at(0, 1, p.zero()), 2.0);
  CHECK_EQ(a.at(1, 2, p.zero()), 7.0);
  CHECK(graph::is_adjacency_of(a, g, p.zero()).ok);
}

void test_out_of_range_endpoints_throw() {
  // `edges()` is writable past `add_edge`'s check, so an endpoint
  // outside [0, n) can reach incidence assembly; it must be rejected
  // there, before any product indexes by it.
  const algebra::PlusTimes<double> p;
  util::ThreadPool pool(4);
  const graph::Edge bad_edges[] = {{0, 4, 1.0}, {4, 0, 1.0}, {-1, 2, 1.0},
                                   {2, -1, 1.0}};
  for (const graph::Edge& bad : bad_edges) {
    auto g = hand_graph();
    g.edges().push_back(bad);
    for (util::ThreadPool* pl : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool}) {
      bool threw = false;
      try {
        (void)graph::build_adjacency(g, p, sparse::SpGemmAlgo::kAuto, pl);
      } catch (const std::out_of_range&) {
        threw = true;
      }
      CHECK(threw);
    }
  }
}

/// A negative vertex count is refused where the graph is made, so it
/// cannot reach incidence assembly (which used to abort on it).
void test_negative_vertex_count_throws() {
  bool threw = false;
  try {
    (void)graph::build_adjacency(graph::Graph(-5),
                                 algebra::PlusTimes<double>{});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

static_assert(sizeof(graph::Edge) == 16);

/// An edge stores 32-bit endpoints, so `add_edge` refuses every endpoint
/// it cannot store as it refuses one outside [0, n), in every build:
/// narrowed unchecked, vertex 2^32 + 1 would become vertex 1. A graph
/// may still have more than 2^31 vertices; the ones above 2^31 − 1 are
/// isolated.
void test_add_edge_refuses_ids_it_cannot_store() {
  const index_t n = (index_t{1} << 32) + 2;
  const index_t max_id = graph::Edge::kMaxVertex;
  CHECK_EQ(max_id, (index_t{1} << 31) - 1);
  graph::Graph g(n);
  const auto refused = [&](index_t src, index_t dst) {
    try {
      g.add_edge(src, dst);
    } catch (const std::out_of_range&) {
      return true;
    }
    return false;
  };
  CHECK(refused((index_t{1} << 32) + 1, 0));
  CHECK(refused(0, (index_t{1} << 32) + 1));
  CHECK(refused(max_id + 1, 0));
  CHECK(refused(0, max_id + 1));
  CHECK(refused(-1, 0));
  CHECK(refused(0, n));
  CHECK_EQ(g.num_edges(), index_t{0});
  CHECK(!refused(max_id, 1));
  CHECK_EQ(g.num_edges(), index_t{1});
  CHECK_EQ(index_t{g.edges()[0].src}, max_id);
  CHECK_EQ(index_t{g.edges()[0].dst}, index_t{1});
  CHECK_EQ(g.num_vertices(), n);
}

}  // namespace

int main() {
  test_validator_accepts_true_adjacency();
  test_validator_rejects_wrong_patterns();
  test_construction_matches_definition();
  test_reverse_adjacency();
  test_weighted_incidence();
  test_out_of_range_endpoints_throw();
  test_negative_vertex_count_throws();
  test_add_edge_refuses_ids_it_cannot_store();
  return TEST_MAIN_RESULT();
}
