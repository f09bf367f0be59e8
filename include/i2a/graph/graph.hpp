#pragma once
/// \file graph/graph.hpp
/// \brief Directed multigraph as an edge list — parallel edges,
///        self-loops, and isolated vertices are all first-class, because
///        the paper's theorem is precisely about surviving them.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace i2a::graph {

/// One directed edge src → dst with its weight: 16 B, no padding. The
/// edge list is the largest object a construction or an ingest keeps,
/// so the endpoints are 32-bit `vertex_type`, as a run's column ids are
/// `Dcsr::col_type`; every reader widens them to `index_t`. An edge names
/// at most vertex 2^31 − 1 (`kMaxVertex`): a `Graph` may have more, but
/// those are isolated. Nothing narrows unchecked: `add_edge`, the
/// generators and WAL replay each range-check first. Signed, so that an
/// edge built with a negative endpoint, as in `Edge{-1, 0, 1.0}`, keeps
/// it, and ingest refuses it as any endpoint outside [0, n).
struct Edge {
  using vertex_type = std::int32_t;
  /// The largest endpoint an edge stores: 2^31 − 1.
  static constexpr index_t kMaxVertex =
      std::numeric_limits<vertex_type>::max();

  vertex_type src;
  vertex_type dst;
  double weight = 1.0;
};

/// Whether `v` is a vertex of a graph on `n` vertices that an `Edge` can
/// store: in [0, n) and at most `Edge::kMaxVertex`. Every writer checks
/// it before it narrows an endpoint.
inline bool storable_vertex(index_t v, index_t n) {
  return v >= 0 && v < n && v <= Edge::kMaxVertex;
}

class Graph {
 public:
  /// Throws `std::invalid_argument` for a negative vertex count.
  explicit Graph(index_t num_vertices = 0) : num_vertices_(num_vertices) {
    if (num_vertices < 0) {
      throw std::invalid_argument("graph::Graph: negative vertex count");
    }
  }

  index_t num_vertices() const { return num_vertices_; }
  index_t num_edges() const { return static_cast<index_t>(edges_.size()); }

  /// Throws `std::out_of_range` for an endpoint outside [0, n) or above
  /// `Edge::kMaxVertex`, before anything is narrowed.
  void add_edge(index_t src, index_t dst, double weight = 1.0) {
    if (!storable_vertex(src, num_vertices_) ||
        !storable_vertex(dst, num_vertices_)) {
      throw std::out_of_range("graph::Graph::add_edge: endpoint outside "
                              "[0, n) or above 2^31 - 1");
    }
    edges_.push_back(Edge{static_cast<Edge::vertex_type>(src),
                          static_cast<Edge::vertex_type>(dst), weight});
  }

  std::vector<Edge>& edges() { return edges_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// The reverse multigraph: every edge flipped, weights kept.
  Graph reverse() const {
    Graph r(num_vertices_);
    r.edges_.reserve(edges_.size());
    for (const Edge& e : edges_) {
      r.edges_.push_back(Edge{e.dst, e.src, e.weight});
    }
    return r;
  }

 private:
  index_t num_vertices_;
  std::vector<Edge> edges_;
};

namespace detail {

/// The graph algorithms size per-vertex arrays by an adjacency array's
/// row count and index them with its column ids, so each entry point
/// throws `std::invalid_argument` for a non-square array (an incidence
/// array, say) instead of reading or writing out of bounds.
inline void require_square(index_t nrows, index_t ncols, const char* who) {
  if (nrows != ncols) {
    throw std::invalid_argument(std::string(who) +
                                ": adjacency array is not square");
  }
}

}  // namespace detail

}  // namespace i2a::graph
