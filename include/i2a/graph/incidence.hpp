#pragma once
/// \file graph/incidence.hpp
/// \brief Incidence-array assembly and the paper's central construction
///        A = Eᵀout ⊕.⊗ Ein (Theorem II.1), plus the reverse-graph
///        corollary Aᵀ-construction (Corollary III.1).
///
/// Eout and Ein are |E| × |V| arrays: row e of Eout marks the source
/// vertex of edge e, row e of Ein its destination. Each row has exactly
/// one nonzero, so a self-loop is simply the same column marked in both
/// arrays, and parallel edges are distinct rows — the fold ⊕ merges them
/// during the product.
///
/// Assembly is **sort-free and zero-staging** (PR 3): exactly one nonzero
/// per row with rows arriving in edge order means the CSR row pointer is
/// the identity ramp 0..|E| and cols/vals are written in a single
/// (optionally parallel) pass over the edge list. No COO buffer, no
/// comparison sort, no duplicate scan — the O(|E| log |E|) stable sort
/// the old `Coo` + `from_coo` path paid is pure waste on this structure.
/// The bytes produced are identical to the old path's (and pool-size
/// independent: edge e always lands at slot e).
///
/// Both products call `sparse::spgemm_at_b`, whose kAuto hands the
/// row-singleton incidence arrays' per-edge ⊗-terms to the build kernel
/// (`detail::build_csr`, sparse/csr.hpp), with ⊕ as its duplicate
/// operator and no transpose.

#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::graph {

template <typename T>
struct IncidencePair {
  sparse::Csr<T> eout;  ///< |E| × |V| source-incidence array
  sparse::Csr<T> ein;   ///< |E| × |V| destination-incidence array
};

/// Build Eout/Ein with caller-chosen entry values:
/// `draw(edge_index, is_out)` must return a value that is nonzero in the
/// intended algebra (the theorem's hypothesis on incidence arrays).
/// Throws `std::out_of_range` when an edge names an endpoint outside
/// [0, |V|) (`edges()` is writable past `Graph::add_edge`'s check).
/// With a multi-thread `pool`, edge chunks fill their slots concurrently,
/// so `draw` must then be safe to call concurrently for distinct edges
/// (pure draws — constants, weight lookups — qualify; a shared stateful
/// RNG does not, pass no pool for those).
template <typename T, typename Draw>
IncidencePair<T> incidence_arrays_with(const Graph& g, Draw&& draw,
                                       util::ThreadPool* pool = nullptr) {
  const index_t m = g.num_edges();
  const index_t n = g.num_vertices();
  const auto& edges = g.edges();
  // Injection site: the six incidence-array allocations below. A fire
  // produces nothing — the caller's graph is untouched.
  I2A_FAILPOINT("incidence.assemble.alloc");
  // row_ptr is the identity ramp: row e holds exactly entry e.
  std::vector<index_t> out_ptr(static_cast<std::size_t>(m) + 1);
  std::vector<index_t> in_ptr(static_cast<std::size_t>(m) + 1);
  std::vector<index_t> out_cols(static_cast<std::size_t>(m));
  std::vector<index_t> in_cols(static_cast<std::size_t>(m));
  std::vector<T> out_vals(static_cast<std::size_t>(m));
  std::vector<T> in_vals(static_cast<std::size_t>(m));
  out_ptr[static_cast<std::size_t>(m)] = m;
  in_ptr[static_cast<std::size_t>(m)] = m;
  const bool parallel = pool != nullptr && pool->size() > 1 && m > 0;
  sparse::detail::run_chunked(
      pool, parallel, m, [&](index_t, index_t lo, index_t hi) {
        for (index_t e = lo; e < hi; ++e) {
          const Edge& ed = edges[static_cast<std::size_t>(e)];
          if (ed.src < 0 || ed.src >= n || ed.dst < 0 || ed.dst >= n) {
            throw std::out_of_range("i2a::graph: incidence_arrays: edge "
                                    "endpoint out of range");
          }
          out_ptr[static_cast<std::size_t>(e)] = e;
          in_ptr[static_cast<std::size_t>(e)] = e;
          out_cols[static_cast<std::size_t>(e)] = ed.src;
          in_cols[static_cast<std::size_t>(e)] = ed.dst;
          out_vals[static_cast<std::size_t>(e)] = draw(e, true);
          in_vals[static_cast<std::size_t>(e)] = draw(e, false);
        }
      });
  IncidencePair<T> inc{
      sparse::Csr<T>(m, n, std::move(out_ptr), std::move(out_cols),
                     std::move(out_vals)),
      sparse::Csr<T>(m, n, std::move(in_ptr), std::move(in_cols),
                     std::move(in_vals))};
  I2A_ENSURES(inc.eout.is_canonical() && inc.ein.is_canonical(),
              "incidence_arrays_with: non-canonical incidence CSR");
  return inc;
}

/// Unweighted incidence arrays: every incidence entry is 1, as in the
/// paper's unweighted figures. (1 is distinct from the zero element of
/// all seven Table I pairs, so the theorem's hypothesis holds.)
template <typename P>
  requires algebra::Semiring<P>
IncidencePair<typename P::value_type> incidence_arrays(
    const Graph& g, const P&, util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  return incidence_arrays_with<T>(
      g, [](index_t, bool) { return T(1); }, pool);
}

/// Weighted incidence arrays: Ein carries the edge weight, Eout carries
/// the multiplicative identity, so each edge contributes exactly its
/// weight to the fold — A(i,j) = ⊕ over parallel edges of w(e). This is
/// what makes min.+ adjacency arrays directly usable for SSSP/APSP.
template <typename P>
  requires algebra::Semiring<P>
IncidencePair<typename P::value_type> weighted_incidence_arrays(
    const Graph& g, const P& p, util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  const auto& edges = g.edges();
  return incidence_arrays_with<T>(
      g,
      [&](index_t e, bool is_out) {
        return is_out
                   ? p.one()
                   : static_cast<T>(edges[static_cast<std::size_t>(e)].weight);
      },
      pool);
}

/// The paper's construction: A = Eᵀout ⊕.⊗ Ein. With kAuto both
/// operands are row singletons, so the product is the per-edge fold:
/// A(i,j) is the ⊕-fold, in edge order, of Eout(e,i) ⊗ Ein(e,j) over the
/// edges i→j, with no transpose (the build kernel, sparse/csr.hpp). A
/// forced kernel runs the engine on the transposed Eout.
template <typename P>
  requires algebra::Semiring<P>
sparse::Csr<typename P::value_type> adjacency_array(
    const P& p, const IncidencePair<typename P::value_type>& inc,
    sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kAuto,
    util::ThreadPool* pool = nullptr) {
  return sparse::spgemm_at_b(p, inc.eout, inc.ein, algo, pool);
}

/// Corollary III.1: the adjacency array of the reverse graph is
/// Eᵀin ⊕.⊗ Eout — swap the incidence arrays, no new product machinery.
template <typename P>
  requires algebra::Semiring<P>
sparse::Csr<typename P::value_type> reverse_adjacency_array(
    const P& p, const IncidencePair<typename P::value_type>& inc,
    sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kAuto,
    util::ThreadPool* pool = nullptr) {
  return sparse::spgemm_at_b(p, inc.ein, inc.eout, algo, pool);
}

/// End-to-end convenience: graph → incidence arrays → adjacency array.
/// The pool parallelizes *both* phases — the sort-free incidence
/// assembly and the product.
template <typename P>
  requires algebra::Semiring<P>
sparse::Csr<typename P::value_type> build_adjacency(
    const Graph& g, const P& p,
    sparse::SpGemmAlgo algo = sparse::SpGemmAlgo::kAuto,
    util::ThreadPool* pool = nullptr) {
  return adjacency_array(p, incidence_arrays(g, p, pool), algo, pool);
}

}  // namespace i2a::graph
