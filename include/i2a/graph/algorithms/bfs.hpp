#pragma once
/// \file graph/algorithms/bfs.hpp
/// \brief Level-synchronous BFS over a constructed adjacency array's
///        nonzero pattern — against a materialized CSR, or directly
///        against a live builder's pinned snapshot (no copy, no locks).
///        One traversal loop serves both; each overload supplies only
///        the visitor that walks a row's edges.

#include <stdexcept>
#include <vector>

#include "algebra/concepts.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "stream/pinned_snapshot.hpp"

namespace i2a::graph {

namespace detail {

/// BFS levels from `src` over n vertices: level[src] = 0, unreachable
/// vertices = -1. `for_each_edge(u, visit)` calls `visit(v)` for every
/// edge u → v. Throws `std::out_of_range` for an out-of-range source
/// (indexing level[src] unchecked was UB).
template <typename ForEachEdge>
std::vector<index_t> bfs_loop(index_t n, index_t src,
                              const ForEachEdge& for_each_edge) {
  if (src < 0 || src >= n) {
    throw std::out_of_range("bfs_levels: source vertex out of range");
  }
  std::vector<index_t> level(static_cast<std::size_t>(n), index_t{-1});
  std::vector<index_t> frontier{src};
  level[static_cast<std::size_t>(src)] = 0;
  index_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<index_t> next;
    // Value captures (here and for the overloads' `zero`): the visitor
    // runs once per edge, and a captured reference would be reloaded
    // after every push_back.
    const auto visit = [lv = level.data(), depth, &next](index_t v) {
      if (lv[v] == -1) {
        lv[v] = depth;
        next.push_back(v);
      }
    };
    for (const index_t u : frontier) for_each_edge(u, visit);
    frontier = std::move(next);
  }
  return level;
}

}  // namespace detail

/// BFS levels from `src` (see `detail::bfs_loop`). An entry counts as an
/// edge when its value differs from `zero`. Throws
/// `std::invalid_argument` for a non-square array.
template <typename T>
std::vector<index_t> bfs_levels(const sparse::Csr<T>& a, index_t src, T zero) {
  detail::require_square(a.nrows(), a.ncols(), "bfs_levels");
  return detail::bfs_loop(a.nrows(), src, [&a, zero](index_t u,
                                                   const auto& visit) {
    const auto cs = a.row_cols(u);
    const auto vs = a.row_vals(u);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (!(vs[k] == zero)) visit(cs[k]);
    }
  });
}

/// BFS straight off a pinned snapshot: frontier rows are ⊕-folded across
/// the pinned runs on the fly (`fold_row`, one reused scratch), so the
/// traversal touches only the rows it visits — no O(nnz) materialize,
/// no locks, fully concurrent with the writer. The pattern rule is the
/// CSR overload's: a folded value equal to the pair's zero element is
/// not an edge. Identical output to running the CSR overload on
/// `snap.materialize()`.
template <typename P>
  requires algebra::Semiring<P>
std::vector<index_t> bfs_levels(const stream::PinnedSnapshot<P>& snap,
                                index_t src) {
  using T = typename P::value_type;
  const T zero = snap.pair().zero();
  auto scratch = snap.row_scratch();
  return detail::bfs_loop(
      snap.num_vertices(), src,
      [&snap, &scratch, zero](index_t u, const auto& visit) {
        snap.fold_row(u, scratch, [&visit, zero](index_t v, const T& val) {
          if (!(val == zero)) visit(v);
        });
      });
}

}  // namespace i2a::graph
