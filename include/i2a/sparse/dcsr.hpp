#pragma once
/// \file sparse/dcsr.hpp
/// \brief Doubly compressed sparse row (DCSR) matrix: the hypersparse
///        layout of the GraphBLAS foundations paper (Kepner et al.,
///        1606.05790), which stores only the rows that hold entries.
///
/// A `Csr` pays an n + 1 row pointer whatever it holds. A streaming delta
/// of a few hundred edges, or a ladder run covering a few batches, holds
/// entries in a small fraction of the rows: every incidence row has one
/// nonzero, so row i of a batch's adjacency is non-empty only when some
/// edge of the batch leaves i (Theorem II.1). `Dcsr` keeps
///
///   * `row_ids`  — the ids of the non-empty rows, strictly increasing;
///   * `row_ptr`  — `row_ids.size() + 1` offsets, row_ids[k]'s entries
///                  at [row_ptr[k], row_ptr[k + 1]);
///   * `cols`     — each row's column ids, as in `Csr` but stored as
///                  32-bit `col_type`;
///   * `vals`     — exactly as in `Csr`.
///
/// so its size is O(stored rows + nnz), independent of n: 12 B per entry
/// (a 4-byte column id beside an 8-byte value) plus 16 B per stored row
/// for a `double` run. A row lookup is a binary search over `row_ids`;
/// the merge kernel (sparse/merge.hpp) instead walks the id lists with
/// cursors. `compress` and `to_csr` convert to and from the dense layout
/// without changing an entry — `compress` narrows each column id and
/// `to_csr` widens it back — so a `Dcsr` holds exactly the entries of
/// the `Csr` it came from, minus the empty rows' pointer slots.
///
/// The 32-bit ids cap `ncols` at 2^32 (`kMaxCols`; `compress` throws
/// above it). That removes no working capability from the streaming
/// builders, whose runs are n × n: staging a batch already allocates a
/// dense n + 1 `index_t` row pointer, 32 GiB at n = 2^32. Their edges
/// are narrower still: `graph::Edge` stores 32-bit signed endpoints, so
/// an ingested edge names a vertex of at most 2^31 − 1, and in a builder
/// over more vertices the ones above that stay isolated.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "util/contract.hpp"

namespace i2a::sparse {

template <typename T>
class Dcsr {
 public:
  /// A stored column id. Every public read of an entry (`to_csr`, and
  /// the merge kernel's emitted columns) widens it back to `index_t`.
  using col_type = std::uint32_t;
  /// The largest column count whose ids fit `col_type`: 2^32.
  static constexpr index_t kMaxCols =
      index_t{std::numeric_limits<col_type>::max()} + 1;

  Dcsr() : nrows_(0), ncols_(0), row_ptr_{0} {}

  Dcsr(index_t nrows, index_t ncols, std::vector<index_t> row_ids,
       std::vector<index_t> row_ptr, std::vector<col_type> cols,
       std::vector<T> vals)
      : nrows_(nrows),
        ncols_(ncols),
        row_ids_(std::move(row_ids)),
        row_ptr_(std::move(row_ptr)),
        cols_(std::move(cols)),
        vals_(std::move(vals)) {
    assert(row_ptr_.size() == row_ids_.size() + 1);
    assert(cols_.size() == vals_.size());
  }

  /// The stored-row layout of `dense`: its empty rows dropped, its column
  /// ids narrowed to `col_type` and its value array moved over unchanged.
  /// O(nrows + nnz); pass an rvalue to avoid copying the values. Throws
  /// `std::invalid_argument` when `dense.ncols()` exceeds `kMaxCols`.
  static Dcsr compress(Csr<T> dense) {
    if (dense.ncols() > kMaxCols) {
      throw std::invalid_argument("Dcsr::compress: more than 2^32 columns");
    }
    I2A_EXPECTS(dense.is_canonical(), "Dcsr::compress: input not canonical");
    const auto& rp = dense.row_ptr();
    std::size_t stored = 0;
    for (index_t r = 0; r < dense.nrows(); ++r) {
      stored += dense.row_nnz(r) != 0 ? 1 : 0;
    }
    std::vector<index_t> row_ids;
    std::vector<index_t> row_ptr{0};
    row_ids.reserve(stored);
    row_ptr.reserve(stored + 1);
    for (index_t r = 0; r < dense.nrows(); ++r) {
      const index_t end = rp[static_cast<std::size_t>(r) + 1];
      if (end != rp[static_cast<std::size_t>(r)]) {
        row_ids.push_back(r);
        row_ptr.push_back(end);
      }
    }
    const index_t nrows = dense.nrows();
    const index_t ncols = dense.ncols();
    auto [wide, vals] = std::move(dense).release_entries();
    std::vector<col_type> cols(wide.size());
    std::transform(wide.begin(), wide.end(), cols.begin(),
                   [](index_t c) { return static_cast<col_type>(c); });
    Dcsr out(nrows, ncols, std::move(row_ids), std::move(row_ptr),
             std::move(cols), std::move(vals));
    I2A_ENSURES(out.is_canonical(), "Dcsr::compress: non-canonical DCSR");
    return out;
  }

  /// The same entries in the dense layout (an n + 1 row pointer and
  /// `index_t` column ids).
  Csr<T> to_csr() const {
    std::vector<index_t> rp(static_cast<std::size_t>(nrows_) + 1, 0);
    for_each_dense_row_ptr([&rp](index_t r, index_t v) {
      rp[static_cast<std::size_t>(r)] = v;
    });
    return Csr<T>(nrows_, ncols_, std::move(rp),
                  std::vector<index_t>(cols_.begin(), cols_.end()), vals_);
  }

  /// Call `fn(r, row_ptr_r)` for r = 0..nrows in order: the dense row
  /// pointer, generated from the stored rows without materializing it.
  template <typename Fn>
  void for_each_dense_row_ptr(const Fn& fn) const {
    std::size_t k = 0;
    for (index_t r = 0; r <= nrows_; ++r) {
      while (k < row_ids_.size() && row_ids_[k] < r) ++k;
      fn(r, row_ptr_[k]);
    }
  }

  /// True iff the storage satisfies every DCSR invariant (see
  /// `invariant_violation`).
  bool is_canonical() const {
    return invariant_violation(nrows_, ncols_, row_ids_, row_ptr_, cols_,
                               vals_.size()) == nullptr;
  }

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  index_t nnz() const { return static_cast<index_t>(cols_.size()); }
  /// Number of non-empty (stored) rows.
  std::size_t stored_rows() const { return row_ids_.size(); }

  /// Position of row `r` in `row_ids()`, or -1 when the row is empty. A
  /// branch-free binary search (each step is a conditional move): probe
  /// outcomes on the `fold_row` read path are unpredictable, and with
  /// `std::lower_bound` instead, bench/e2e `serve-single`'s read p50 rose
  /// from ~1.6 to ~1.95 µs on a 4-vCPU VM.
  index_t find_row(index_t r) const {
    if (row_ids_.empty()) return -1;
    const index_t* base = row_ids_.data();
    for (std::size_t len = row_ids_.size(); len > 1; len -= len / 2) {
      base = base[len / 2] <= r ? base + len / 2 : base;
    }
    return *base == r ? static_cast<index_t>(base - row_ids_.data()) : -1;
  }

  /// Column indices of the `k`-th stored row (strictly increasing).
  std::span<const col_type> stored_cols(index_t k) const {
    const auto b = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(k)]);
    const auto e =
        static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(k) + 1]);
    return std::span<const col_type>(cols_.data() + b, e - b);
  }

  /// Values of the `k`-th stored row, parallel to `stored_cols(k)`.
  std::span<const T> stored_vals(index_t k) const {
    const auto b = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(k)]);
    const auto e =
        static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(k) + 1]);
    return std::span<const T>(vals_.data() + b, e - b);
  }

  const std::vector<index_t>& row_ids() const { return row_ids_; }
  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<col_type>& cols() const { return cols_; }
  const std::vector<T>& vals() const { return vals_; }

 private:
  /// The one statement of the canonical-DCSR invariants, in the shape of
  /// `Csr`'s validator: nullptr when they all hold, else the first
  /// violation. Row ids and the row pointer are validated fully before
  /// cols is scanned, so a malformed pointer never drives a bad read.
  static const char* invariant_violation(index_t nrows, index_t ncols,
                                         const std::vector<index_t>& row_ids,
                                         const std::vector<index_t>& row_ptr,
                                         const std::vector<col_type>& cols,
                                         std::size_t vals_size) {
    if (nrows < 0 || ncols < 0) return "negative dimension";
    if (ncols > kMaxCols) return "ncols exceeds the 32-bit column ids";
    if (row_ptr.size() != row_ids.size() + 1) {
      return "row_ptr size != stored rows + 1";
    }
    if (cols.size() != vals_size) return "cols/vals size mismatch";
    if (row_ptr.front() != 0 ||
        row_ptr.back() != static_cast<index_t>(cols.size())) {
      return "row_ptr endpoints wrong";
    }
    for (std::size_t k = 0; k < row_ids.size(); ++k) {
      if (row_ids[k] < 0 || row_ids[k] >= nrows) return "row id out of range";
      if (k > 0 && row_ids[k - 1] >= row_ids[k]) {
        return "row ids not strictly increasing";
      }
      if (row_ptr[k] >= row_ptr[k + 1]) return "stored row is empty";
    }
    for (std::size_t k = 0; k < row_ids.size(); ++k) {
      for (index_t i = row_ptr[k]; i < row_ptr[k + 1]; ++i) {
        const auto c = static_cast<index_t>(cols[static_cast<std::size_t>(i)]);
        if (c >= ncols) return "column out of range";
        if (i > row_ptr[k] && cols[static_cast<std::size_t>(i) - 1] >= c) {
          return "columns not strictly increasing within a row";
        }
      }
    }
    return nullptr;
  }

  index_t nrows_;
  index_t ncols_;
  std::vector<index_t> row_ids_;  // non-empty rows, strictly increasing
  std::vector<index_t> row_ptr_;  // size row_ids + 1, strictly increasing
  std::vector<col_type> cols_;    // size nnz, sorted within each row
  std::vector<T> vals_;           // size nnz
};

}  // namespace i2a::sparse
