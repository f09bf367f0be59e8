#pragma once
/// \file graph/algorithms/pagerank.hpp
/// \brief Power-iteration PageRank on an adjacency array's pattern.
///
/// Power iteration sweeps every row each round, so it takes a `Csr`.
/// Against a live builder, pass `snap.materialize()` and
/// `snap.pair().zero()`: the output equals rebuilding the covered prefix.

#include <cmath>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"

namespace i2a::graph {

/// Standard PageRank with uniform teleport and dangling-mass
/// redistribution. Runs until the L1 delta drops below `tol` or
/// `max_iters` rounds, whichever first. An entry counts as an edge when
/// its value differs from `zero` — the same Definition I.5 pattern rule
/// the validators and BFS use, so an explicitly stored zero element
/// neither adds out-degree nor receives rank mass. Throws
/// `std::invalid_argument` for a non-square array.
template <typename T>
std::vector<double> pagerank(const sparse::Csr<T>& a, double damping,
                             double tol, int max_iters, T zero = T{}) {
  detail::require_square(a.nrows(), a.ncols(), "pagerank");
  const index_t n = a.nrows();
  const auto un = static_cast<std::size_t>(n);
  const double uniform = 1.0 / static_cast<double>(n);
  // Out-degrees over the nonzero pattern.
  std::vector<index_t> outdeg(un, 0);
  for (index_t u = 0; u < n; ++u) {
    for (const T& v : a.row_vals(u)) {
      if (!(v == zero)) ++outdeg[static_cast<std::size_t>(u)];
    }
  }
  std::vector<double> rank(un, uniform);
  std::vector<double> next(un);
  for (int it = 0; it < max_iters; ++it) {
    double dangling = 0.0;
    for (index_t u = 0; u < n; ++u) {
      if (outdeg[static_cast<std::size_t>(u)] == 0) {
        dangling += rank[static_cast<std::size_t>(u)];
      }
    }
    const double base = (1.0 - damping) * uniform +
                        damping * dangling * uniform;
    std::fill(next.begin(), next.end(), base);
    for (index_t u = 0; u < n; ++u) {
      if (outdeg[static_cast<std::size_t>(u)] == 0) continue;
      const auto cs = a.row_cols(u);
      const auto vs = a.row_vals(u);
      const double share =
          damping * rank[static_cast<std::size_t>(u)] /
          static_cast<double>(outdeg[static_cast<std::size_t>(u)]);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        if (!(vs[k] == zero)) next[static_cast<std::size_t>(cs[k])] += share;
      }
    }
    double delta = 0.0;
    for (std::size_t i = 0; i < un; ++i) {
      delta += std::abs(next[i] - rank[i]);
    }
    rank.swap(next);
    if (delta < tol) break;
  }
  return rank;
}

}  // namespace i2a::graph
