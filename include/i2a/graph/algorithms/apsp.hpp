#pragma once
/// \file graph/algorithms/apsp.hpp
/// \brief Semiring closures on constructed adjacency arrays: min.+ APSP
///        (Floyd–Warshall) and Boolean transitive closure.
///
/// Both are dense O(n³) sweeps over a `Csr`. Against a live builder,
/// pass `snap.materialize()` (and `snap.pair().zero()` for the closure):
/// one k-way merge, noise next to the sweep.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace i2a::graph {

/// All-pairs shortest paths from a min.+ adjacency array. Dense
/// Floyd–Warshall; absent entries are +inf, diagonal starts at 0.
/// Throws `std::invalid_argument` for a non-square array.
inline sparse::Dense<double> apsp(const sparse::Csr<double>& a) {
  detail::require_square(a.nrows(), a.ncols(), "apsp");
  constexpr double inf = std::numeric_limits<double>::infinity();
  const index_t n = a.nrows();
  sparse::Dense<double> dist = sparse::to_dense(a, inf);
  for (index_t i = 0; i < n; ++i) {
    if (0.0 < dist.at(i, i)) dist.at(i, i) = 0.0;
  }
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = 0; i < n; ++i) {
      const double dik = dist.at(i, k);
      if (dik == inf) continue;
      for (index_t j = 0; j < n; ++j) {
        const double cand = dik + dist.at(k, j);
        if (cand < dist.at(i, j)) dist.at(i, j) = cand;
      }
    }
  }
  return dist;
}

/// Boolean transitive closure of the adjacency pattern (an entry is an
/// edge when its value differs from `zero`). closure(i,j) = 1 iff a path
/// i → j with at least one edge exists; Warshall's algorithm. Throws
/// `std::invalid_argument` for a non-square array.
template <typename T>
sparse::Dense<std::uint8_t> transitive_closure(const sparse::Csr<T>& a,
                                               T zero) {
  detail::require_square(a.nrows(), a.ncols(), "transitive_closure");
  const index_t n = a.nrows();
  sparse::Dense<std::uint8_t> reach(n, n, 0);
  for (index_t i = 0; i < n; ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (!(vs[k] == zero)) reach.at(i, cs[k]) = 1;
    }
  }
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = 0; i < n; ++i) {
      if (!reach.at(i, k)) continue;
      for (index_t j = 0; j < n; ++j) {
        if (reach.at(k, j)) reach.at(i, j) = 1;
      }
    }
  }
  return reach;
}

}  // namespace i2a::graph
