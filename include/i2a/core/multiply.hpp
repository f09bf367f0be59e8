#pragma once
/// \file core/multiply.hpp
/// \brief Keyed array product A = E1ᵀ ⊕.⊗ E2: rows of the result are
///        E1's column keys, columns are E2's column keys, and the fold
///        runs over the *shared* row keys — exactly the figure-3/5
///        operation "for each track, combine its genre and writer
///        entries". The arithmetic is the library's `spgemm_at_b`.

#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/associative_array.hpp"
#include "sparse/spgemm.hpp"

namespace i2a::core {

/// Sparse-shortcut keyed product (valid for conforming pairs): only
/// stored⊗stored terms enter the fold, with first-touch initialization so
/// no ⊕-identity is assumed. The rows whose key both arrays hold are
/// aligned, in increasing key order, into two integer arrays, and
/// `sparse::spgemm_at_b` folds each (i, j) over them in that order.
/// Accepts any `Semiring` pair — the templated Table I functors or the
/// type-erased AnyPairD the figure binaries iterate.
template <typename P>
  requires algebra::Semiring<P>
AssocArray<typename P::value_type> multiply_at_b(
    const P& p, const AssocArray<typename P::value_type>& a,
    const AssocArray<typename P::value_type>& b) {
  using T = typename P::value_type;
  // Align on shared row keys (both arrays keep sorted key vectors).
  std::vector<index_t> aptr{0}, bptr{0}, acols, bcols;
  std::vector<T> avals, bvals;
  for (std::size_t ra = 0; ra < a.row_keys().size(); ++ra) {
    const index_t rb =
        AssocArray<T>::find_key(b.row_keys(), a.row_keys()[ra]);
    if (rb == -1) continue;
    const auto ac = a.data().row_cols(static_cast<index_t>(ra));
    const auto av = a.data().row_vals(static_cast<index_t>(ra));
    acols.insert(acols.end(), ac.begin(), ac.end());
    avals.insert(avals.end(), av.begin(), av.end());
    aptr.push_back(static_cast<index_t>(acols.size()));
    const auto bc = b.data().row_cols(rb);
    const auto bv = b.data().row_vals(rb);
    bcols.insert(bcols.end(), bc.begin(), bc.end());
    bvals.insert(bvals.end(), bv.begin(), bv.end());
    bptr.push_back(static_cast<index_t>(bcols.size()));
  }
  const auto shared = static_cast<index_t>(aptr.size() - 1);
  const auto c = sparse::spgemm_at_b(
      p,
      sparse::Csr<T>(shared, a.ncols(), std::move(aptr), std::move(acols),
                     std::move(avals)),
      sparse::Csr<T>(shared, b.ncols(), std::move(bptr), std::move(bcols),
                     std::move(bvals)));

  std::vector<KeyedTriple<T>> triples;
  triples.reserve(static_cast<std::size_t>(c.nnz()));
  for (index_t i = 0; i < c.nrows(); ++i) {
    const auto cs = c.row_cols(i);
    const auto vs = c.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      triples.push_back(KeyedTriple<T>{
          a.col_keys()[static_cast<std::size_t>(i)],
          b.col_keys()[static_cast<std::size_t>(cs[k])], vs[k]});
    }
  }
  return AssocArray<T>::from_triples(triples, sparse::DupPolicy::kKeepFirst);
}

}  // namespace i2a::core
