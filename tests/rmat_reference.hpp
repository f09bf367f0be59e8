#pragma once
/// \file rmat_reference.hpp
/// \brief The branching R-MAT walk that `graph::gen::rmat`'s integer
///        cut-off walk replaced, kept as the determinism tests' oracle.
///        It draws `unit()` at every level and picks the quadrant with an
///        if / else-if chain on the running sums a, a + b, a + b + c, so
///        it shares no quadrant logic with the generator. It runs
///        serially, opening edge e's block stream itself, so it shares no
///        block scheduling either: only the per-block seeding
///        (`stream_for_block`, `kStreamBlock`), which fixes the draws.

#include <cstdint>
#include <optional>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace i2a::test {

inline graph::Graph rmat_reference(int scale, index_t edge_factor, double a,
                                   double b, double c, std::uint64_t seed) {
  const index_t n = index_t{1} << scale;
  const index_t m = n * edge_factor;
  graph::Graph g(n);
  std::optional<util::Xoshiro256> rng;
  for (index_t e = 0; e < m; ++e) {
    if (e % graph::gen::kStreamBlock == 0) {
      rng.emplace(graph::gen::stream_for_block(
          seed, e / graph::gen::kStreamBlock));
    }
    index_t src = 0;
    index_t dst = 0;
    for (index_t bit = n >> 1; bit > 0; bit >>= 1) {
      const double r = rng->unit();
      if (r < a) {
        // top-left: neither bit set
      } else if (r < a + b) {
        dst |= bit;
      } else if (r < a + b + c) {
        src |= bit;
      } else {
        src |= bit;
        dst |= bit;
      }
    }
    g.add_edge(src, dst);
  }
  return g;
}

}  // namespace i2a::test
