#pragma once
/// \file graph/algorithms/sssp.hpp
/// \brief Bellman–Ford single-source shortest paths over a min.+
///        adjacency array (whose entries are already the folded parallel
///        -edge minima, by construction), with negative-cycle detection.
///
/// Relaxation reads rows until a fixpoint, so it takes a `Csr`. Against a
/// live min.+ builder, pass `snap.materialize()`.

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"

namespace i2a::graph {

/// Bellman–Ford output. When a negative cycle is reachable from the
/// source, no finite shortest path exists for any vertex the cycle can
/// reach: those report -inf in `dist` and `has_negative_cycle` is set,
/// instead of the silently wrong finite distances the n-1 rounds alone
/// would leave behind. Vertices unaffected by any negative cycle keep
/// their correct finite distances (or +inf if unreachable).
struct SsspResult {
  std::vector<double> dist;
  bool has_negative_cycle = false;
};

/// Distances from `src` over a min.+ adjacency array: A(i,j) is the best
/// single-edge cost i → j, +inf-absent elsewhere. Throws
/// `std::invalid_argument` for a non-square array and
/// `std::out_of_range` for an out-of-range source (indexing dist[src]
/// unchecked was UB).
inline SsspResult sssp_bellman_ford(const sparse::Csr<double>& a,
                                    index_t src) {
  detail::require_square(a.nrows(), a.ncols(), "sssp_bellman_ford");
  constexpr double inf = std::numeric_limits<double>::infinity();
  const index_t n = a.nrows();
  if (src < 0 || src >= n) {
    throw std::out_of_range("sssp_bellman_ford: source vertex out of range");
  }
  SsspResult res;
  auto& dist = res.dist;
  dist.assign(static_cast<std::size_t>(n), inf);
  dist[static_cast<std::size_t>(src)] = 0.0;
  for (index_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (index_t u = 0; u < n; ++u) {
      const double du = dist[static_cast<std::size_t>(u)];
      if (du == inf) continue;
      const auto cs = a.row_cols(u);
      const auto vs = a.row_vals(u);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        const double cand = du + vs[k];
        if (cand < dist[static_cast<std::size_t>(cs[k])]) {
          dist[static_cast<std::size_t>(cs[k])] = cand;
          changed = true;
        }
      }
    }
    if (!changed) return res;  // fixpoint: no negative cycle is reachable
  }
  // Detection sweep (round n): any vertex still relaxable lies on or
  // behind a reachable negative cycle. Flood -inf forward from those so
  // every poisoned distance is surfaced, not just the cycle itself.
  std::vector<index_t> frontier;
  std::vector<char> poisoned(static_cast<std::size_t>(n), 0);
  for (index_t u = 0; u < n; ++u) {
    const double du = dist[static_cast<std::size_t>(u)];
    if (du == inf) continue;
    const auto cs = a.row_cols(u);
    const auto vs = a.row_vals(u);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const auto v = static_cast<std::size_t>(cs[k]);
      if (du + vs[k] < dist[v] && !poisoned[v]) {
        poisoned[v] = 1;
        frontier.push_back(cs[k]);
      }
    }
  }
  res.has_negative_cycle = !frontier.empty();
  while (!frontier.empty()) {
    const index_t u = frontier.back();
    frontier.pop_back();
    dist[static_cast<std::size_t>(u)] = -inf;
    const auto cs = a.row_cols(u);
    const auto vs = a.row_vals(u);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      // A stored +inf is the min.+ zero element, not an edge
      // (Definition I.5) — the relaxation sweeps already ignore it, so
      // the flood must not poison through it either.
      if (vs[k] == inf) continue;
      if (!poisoned[static_cast<std::size_t>(cs[k])]) {
        poisoned[static_cast<std::size_t>(cs[k])] = 1;
        frontier.push_back(cs[k]);
      }
    }
  }
  return res;
}

}  // namespace i2a::graph
