#pragma once
/// \file sparse/coo.hpp
/// \brief Coordinate-format staging buffer for sparse assembly.
///
/// COO is the append-friendly format: generators and bulk loaders `push`
/// entries in whatever order they discover them, then hand the buffer to
/// `Csr::from_coo`, which groups, orders, deduplicates and compresses it
/// with the build kernel (sparse/csr.hpp). An `Entry` is also the
/// kernel's term type: kAuto's per-edge product yields one per edge.
/// (Incidence arrays do not stage through COO at all — their one-
/// nonzero-per-row structure admits a direct CSR build; see
/// graph/incidence.hpp.)

#include <cassert>
#include <vector>

#include "core/types.hpp"

namespace i2a::sparse {

template <typename T>
class Coo {
 public:
  struct Entry {
    index_t row;
    index_t col;
    T val;
  };

  Coo(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {}

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  std::size_t nnz() const { return entries_.size(); }

  /// Pre-size the entry buffer; bulk producers (generators, workload
  /// builders) call this exactly once up front so staging costs one
  /// allocation total.
  void reserve(std::size_t n) { entries_.reserve(n); }

  void push(index_t row, index_t col, T val) {
    assert(row >= 0 && row < nrows_ && "Coo::push: row out of shape");
    assert(col >= 0 && col < ncols_ && "Coo::push: col out of shape");
    entries_.push_back(Entry{row, col, val});
  }

  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  index_t nrows_;
  index_t ncols_;
  std::vector<Entry> entries_;
};

}  // namespace i2a::sparse
