#pragma once
/// \file graph/graph.hpp
/// \brief Directed multigraph as an edge list — parallel edges,
///        self-loops, and isolated vertices are all first-class, because
///        the paper's theorem is precisely about surviving them.

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace i2a::graph {

struct Edge {
  index_t src;
  index_t dst;
  double weight = 1.0;
};

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

  void add_edge(index_t src, index_t dst, double weight = 1.0) {
    assert(src >= 0 && src < num_vertices_);
    assert(dst >= 0 && dst < num_vertices_);
    edges_.push_back(Edge{src, dst, weight});
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
