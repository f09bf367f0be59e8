#pragma once
/// \file csr_reference.hpp
/// \brief The serial stable-sort COO→CSR assembly that `Csr::from_coo`
///        replaced, kept as the differential tests' oracle. It shares no
///        code with the count/stitch/scatter/fold engine. Semantically
///        identical to `from_coo`, including bitwise-identical FP kSum
///        folds, since both visit a (row, col) group's duplicates in push
///        order.

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace i2a::test {

template <typename T>
sparse::Csr<T> csr_from_coo_reference(
    sparse::Coo<T> coo, sparse::DupPolicy policy = sparse::DupPolicy::kSum) {
  using sparse::DupPolicy;
  auto& e = coo.entries();
  // Stable sort keeps push order within a (row, col) group, which is
  // what gives kKeepFirst its meaning.
  std::stable_sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<index_t> row_ptr(static_cast<std::size_t>(coo.nrows()) + 1, 0);
  std::vector<index_t> cols;
  std::vector<T> vals;
  cols.reserve(e.size());
  vals.reserve(e.size());
  for (std::size_t i = 0; i < e.size();) {
    const index_t r = e[i].row;
    const index_t c = e[i].col;
    assert(r >= 0 && r < coo.nrows() && c >= 0 && c < coo.ncols());
    T acc = e[i].val;
    std::size_t j = i + 1;
    for (; j < e.size() && e[j].row == r && e[j].col == c; ++j) {
      if (policy == DupPolicy::kSum) acc = acc + e[j].val;
    }
    cols.push_back(c);
    vals.push_back(acc);
    ++row_ptr[static_cast<std::size_t>(r) + 1];
    i = j;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(coo.nrows()); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }
  return sparse::Csr<T>(coo.nrows(), coo.ncols(), std::move(row_ptr),
                        std::move(cols), std::move(vals));
}

}  // namespace i2a::test
