#pragma once
/// \file graph/algorithms/triangles.hpp
/// \brief Triangle counting on a symmetric adjacency array, with the
///        mask fused into the row products: A·A is never built.
///
/// The counter reads every row repeatedly, so it takes a `Csr`.
/// Against a live builder, pass `snap.materialize()` and
/// `snap.pair().zero()` (which entries are not edges).

#include <cstdint>

#include "graph/graph.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace i2a::graph {

namespace detail {

/// |N(u) ∩ N(v)| via sorted-merge of two CSR rows.
template <typename T>
std::uint64_t row_intersection_size(const sparse::Csr<T>& a, index_t u,
                                    index_t v) {
  const auto cu = a.row_cols(u);
  const auto cv = a.row_cols(v);
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < cu.size() && j < cv.size()) {
    if (cu[i] < cv[j]) {
      ++i;
    } else if (cv[j] < cu[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Rebuild A's nonzero pattern with all values set to 1; entries equal
/// to the zero element are not edges (Definition I.5), so they are
/// dropped here. Diagonal entries are dropped too: a self-loop is not a
/// triangle edge, but if kept it would inflate |N(i) ∩ N(j)| whenever
/// i ∈ N(j) and the count would overcount.
template <typename T>
sparse::Csr<double> pattern_of(const sparse::Csr<T>& a, T zero) {
  sparse::Coo<double> coo(a.nrows(), a.ncols());
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cs = a.row_cols(i);
    const auto vs = a.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] != i && !(vs[k] == zero)) coo.push(i, cs[k], 1.0);
    }
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

}  // namespace detail

/// For each edge (i, j), accumulate |N(i) ∩ N(j)| directly — the A·A
/// intermediate never exists (the O(nnz) pattern rebuild normalizes
/// explicit zero-element entries and self-loops away). Each triangle is
/// counted 6 times on the symmetric pattern. Throws
/// `std::invalid_argument` for a non-square array.
template <typename T>
std::uint64_t count_triangles(const sparse::Csr<T>& a, T zero = T{}) {
  detail::require_square(a.nrows(), a.ncols(), "count_triangles");
  const auto pat = detail::pattern_of(a, zero);
  std::uint64_t total = 0;
  for (index_t i = 0; i < pat.nrows(); ++i) {
    for (const index_t j : pat.row_cols(i)) {
      total += detail::row_intersection_size(pat, i, j);
    }
  }
  return total / 6;
}

}  // namespace i2a::graph
