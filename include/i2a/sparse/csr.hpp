#pragma once
/// \file sparse/csr.hpp
/// \brief Compressed sparse row matrix, the workhorse storage for
///        incidence and adjacency arrays, plus sort-free COO→CSR assembly
///        with two duplicate policies and a parallel counting-sort
///        `transpose`.
///
/// `from_coo` never comparison-sorts the entry list. It runs serially in
/// three passes:
///
///   1. **count** — a row histogram, turned into the staging row
///      pointer by one prefix sum;
///   2. **scatter** — every entry, in push order, goes to its row
///      group, so a row's staged entries sit in push order;
///   3. **order + fold** — per row, a stable sort by column followed by
///      `DupPolicy` folding, compacted leftwards in place. Stability
///      keeps push order within a (row, col) group, which is what gives
///      `kKeepFirst` its meaning; the fold visits duplicates in push
///      order, so even FP `kSum` matches the reference bit for bit.
///      Rows already strictly increasing (the common duplicate-free
///      ordered case) cost one scan and skip both the sort and the fold.
///
/// Everything is O(nnz + nrows), and a duplicate-free input returns the
/// staging arrays as they are. The stable-sort path it replaced is the
/// differential tests' oracle (tests/csr_reference.hpp).

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sparse/coo.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

/// What `from_coo` does when several pushed entries share one (row, col).
///
/// Incidence assembly and the keyed arrays' products want `kKeepFirst`
/// (an entry has one value); numeric accumulation wants `kSum`.
enum class DupPolicy {
  kSum,        ///< combine duplicates with `+`
  kKeepFirst,  ///< first pushed entry wins
};

namespace detail {

/// Shared fork/join driver of `transpose` and the SpGEMM engine: serial
/// when no multi-thread pool is given, chunked otherwise, with per-chunk
/// scratch stable across passes (the decomposition is a pure function of
/// (n, pool->size())).
template <typename Body>
void run_chunked(util::ThreadPool* pool, bool parallel, index_t n,
                 const Body& body) {
  if (n <= 0) return;
  if (parallel) {
    pool->parallel_for_chunks(n, body);
  } else {
    body(0, 0, n);
  }
}

/// Turn per-chunk bucket histograms into write cursors plus the final
/// bucket pointer, in one serial sweep. On entry `hist[c][b]` holds the
/// number of items chunk `c` owns for bucket `b`; on exit it is chunk
/// `c`'s first write slot for bucket `b` — chunk c's items land after
/// every earlier chunk's, which is exactly the stable-scatter invariant —
/// and `ptr[b]` / `ptr[nbuckets]` are the bucket starts / grand total.
inline void stitch_bucket_cursors(std::vector<std::vector<index_t>>& hist,
                                  std::vector<index_t>& ptr,
                                  index_t nbuckets) {
  index_t total = 0;
  for (index_t b = 0; b < nbuckets; ++b) {
    ptr[static_cast<std::size_t>(b)] = total;
    for (auto& h : hist) {
      const index_t cnt = h[static_cast<std::size_t>(b)];
      h[static_cast<std::size_t>(b)] = total;
      total += cnt;
    }
  }
  ptr[static_cast<std::size_t>(nbuckets)] = total;
}

/// Fold one column-sorted (col, val) run into a compact (cols, vals)
/// prefix per `policy`; returns the deduplicated length. The input is in
/// push order within each equal-column group, so the fold's left-to-right
/// accumulation reproduces a serial stable sort + fold exactly (bitwise,
/// even for FP kSum).
template <typename T>
index_t fold_sorted_run(const std::vector<std::pair<index_t, T>>& run,
                        DupPolicy policy, index_t* cols, T* vals) {
  index_t w = 0;
  std::size_t i = 0;
  while (i < run.size()) {
    const index_t c = run[i].first;
    T acc = run[i].second;
    std::size_t j = i + 1;
    for (; j < run.size() && run[j].first == c; ++j) {
      if (policy == DupPolicy::kSum) acc = acc + run[j].second;
    }
    cols[static_cast<std::size_t>(w)] = c;
    vals[static_cast<std::size_t>(w)] = acc;
    ++w;
    i = j;
  }
  return w;
}

}  // namespace detail

template <typename T>
class Csr {
 public:
  Csr() : nrows_(0), ncols_(0), row_ptr_{0} {}

  Csr(index_t nrows, index_t ncols, std::vector<index_t> row_ptr,
      std::vector<index_t> cols, std::vector<T> vals)
      : nrows_(nrows),
        ncols_(ncols),
        row_ptr_(std::move(row_ptr)),
        cols_(std::move(cols)),
        vals_(std::move(vals)) {
    assert(row_ptr_.size() == static_cast<std::size_t>(nrows_) + 1);
    assert(cols_.size() == vals_.size());
  }

  /// Group + order + deduplicate + compress a COO buffer (file comment
  /// above). Column indices within each row come out strictly
  /// increasing. Throws `std::out_of_range`, in every build, for an entry
  /// outside [0, nrows) × [0, ncols) — `Coo::entries()` and a Release
  /// `push` let one in.
  static Csr from_coo(Coo<T> coo, DupPolicy policy = DupPolicy::kSum) {
    const auto& e = coo.entries();
    const index_t nrows = coo.nrows();
    const auto nnz = e.size();

    // Pass 1 (count): row sizes, shifted by one for the prefix sum.
    std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
    for (const auto& en : e) {
      if (en.row < 0 || en.row >= nrows || en.col < 0 ||
          en.col >= coo.ncols()) {
        throw std::out_of_range("Csr::from_coo: entry outside the shape");
      }
      ++row_ptr[static_cast<std::size_t>(en.row) + 1];
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      row_ptr[r + 1] += row_ptr[r];
    }

    // Pass 2 (stable scatter): each row's entries in push order.
    std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
    std::vector<index_t> cols(nnz);
    std::vector<T> vals(nnz);
    for (const auto& en : e) {
      const auto slot = static_cast<std::size_t>(
          next[static_cast<std::size_t>(en.row)]++);
      cols[slot] = en.col;
      vals[slot] = en.val;
    }

    // Pass 3 (order + fold): per row, a stable sort by column and the
    // DupPolicy fold, written left-compacted at `w` (never past the
    // row's own staged entries). Strictly increasing rows skip both.
    std::vector<std::pair<index_t, T>> buf;
    std::size_t w = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      const auto b = static_cast<std::size_t>(row_ptr[r]);
      const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
      row_ptr[r] = static_cast<index_t>(w);
      bool sorted_unique = true;
      for (std::size_t k = b + 1; k < end && sorted_unique; ++k) {
        sorted_unique = cols[k - 1] < cols[k];
      }
      if (sorted_unique) {
        if (w != b) {
          std::copy(cols.begin() + b, cols.begin() + end, cols.begin() + w);
          std::copy(vals.begin() + b, vals.begin() + end, vals.begin() + w);
        }
        w += end - b;
        continue;
      }
      buf.clear();
      for (std::size_t k = b; k < end; ++k) buf.emplace_back(cols[k], vals[k]);
      std::stable_sort(
          buf.begin(), buf.end(),
          [](const auto& x, const auto& y) { return x.first < y.first; });
      w += static_cast<std::size_t>(detail::fold_sorted_run(
          buf, policy, cols.data() + w, vals.data() + w));
    }
    row_ptr[static_cast<std::size_t>(nrows)] = static_cast<index_t>(w);
    if (w != nnz) {
      cols.resize(w);
      cols.shrink_to_fit();
      vals.resize(w);
      vals.shrink_to_fit();
    }
    Csr out(nrows, coo.ncols(), std::move(row_ptr), std::move(cols),
            std::move(vals));
    I2A_ENSURES(out.is_canonical(), "from_coo: non-canonical CSR");
    return out;
  }

  /// A stored column id (`Dcsr` stores its ids narrower).
  using col_type = index_t;

  /// Validating factory: like the raw constructor but rejects malformed
  /// input with `std::invalid_argument` instead of trusting the caller.
  /// Use at ingestion boundaries; the kernels assume canonical CSR (the
  /// SpGEMM slab reserve sizes rows by it, the heap merges and `at`'s
  /// binary search require sorted columns).
  static Csr checked(index_t nrows, index_t ncols,
                     std::vector<index_t> row_ptr, std::vector<index_t> cols,
                     std::vector<T> vals) {
    if (const char* why =
            invariant_violation(nrows, ncols, row_ptr, cols, vals.size())) {
      throw std::invalid_argument(std::string("Csr::checked: ") + why);
    }
    return Csr(nrows, ncols, std::move(row_ptr), std::move(cols),
               std::move(vals));
  }

  /// True iff the storage satisfies every invariant `checked` enforces
  /// (both call the same validator, so they can never disagree).
  bool is_canonical() const {
    return invariant_violation(nrows_, ncols_, row_ptr_, cols_,
                               vals_.size()) == nullptr;
  }

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  index_t nnz() const { return static_cast<index_t>(cols_.size()); }

  index_t row_nnz(index_t r) const {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  }

  /// Column indices of row `r` (strictly increasing).
  std::span<const index_t> row_cols(index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr_[r]);
    const auto n = static_cast<std::size_t>(row_nnz(r));
    return std::span<const index_t>(cols_.data() + b, n);
  }

  /// Values of row `r`, parallel to `row_cols(r)`.
  std::span<const T> row_vals(index_t r) const {
    const auto b = static_cast<std::size_t>(row_ptr_[r]);
    const auto n = static_cast<std::size_t>(row_nnz(r));
    return std::span<const T>(vals_.data() + b, n);
  }

  /// Stored value at (r, c), or `missing` when the entry is absent.
  T at(index_t r, index_t c, T missing) const {
    const auto cs = row_cols(r);
    const auto it = std::lower_bound(cs.begin(), cs.end(), c);
    if (it == cs.end() || *it != c) return missing;
    return vals_[static_cast<std::size_t>(
        row_ptr_[r] + (it - cs.begin()))];
  }

  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& cols() const { return cols_; }
  const std::vector<T>& vals() const { return vals_; }

  /// Move the column and value arrays out (layout conversions that keep
  /// the entries and rebuild only the row index); leaves this empty.
  std::pair<std::vector<index_t>, std::vector<T>> release_entries() && {
    std::pair<std::vector<index_t>, std::vector<T>> out(std::move(cols_),
                                                         std::move(vals_));
    *this = Csr();
    return out;
  }

 private:
  /// The one statement of the canonical-CSR invariants: returns nullptr
  /// when they all hold, else a description of the first violation.
  /// row_ptr is validated fully before cols is scanned, so a malformed
  /// row_ptr can never drive an out-of-bounds read.
  static const char* invariant_violation(index_t nrows, index_t ncols,
                                         const std::vector<index_t>& row_ptr,
                                         const std::vector<index_t>& cols,
                                         std::size_t vals_size) {
    if (nrows < 0 || ncols < 0) return "negative dimension";
    if (row_ptr.size() != static_cast<std::size_t>(nrows) + 1) {
      return "row_ptr size != nrows + 1";
    }
    if (cols.size() != vals_size) return "cols/vals size mismatch";
    if (row_ptr.front() != 0 ||
        row_ptr.back() != static_cast<index_t>(cols.size())) {
      return "row_ptr endpoints wrong";
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      if (row_ptr[r] > row_ptr[r + 1]) return "row_ptr not monotone";
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nrows); ++r) {
      for (index_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const index_t c = cols[static_cast<std::size_t>(k)];
        if (c < 0 || c >= ncols) return "column out of range";
        if (k > row_ptr[r] && cols[static_cast<std::size_t>(k) - 1] >= c) {
          return "columns not strictly increasing within a row";
        }
      }
    }
    return nullptr;
  }

  index_t nrows_;
  index_t ncols_;
  std::vector<index_t> row_ptr_;  // size nrows + 1
  std::vector<index_t> cols_;     // size nnz, sorted within each row
  std::vector<T> vals_;           // size nnz
};

/// Transpose via counting sort: O(nnz + nrows + ncols), output rows
/// sorted. Per-chunk column histograms, one serial cursor stitch (the
/// stable-scatter invariant again), then a scatter: entries within an
/// output row stay in base-row order and the bytes are pool-size
/// independent.
template <typename T>
Csr<T> transpose(const Csr<T>& a, util::ThreadPool* pool = nullptr) {
  I2A_EXPECTS(a.is_canonical(), "transpose: input CSR not canonical");
  std::vector<index_t> row_ptr(static_cast<std::size_t>(a.ncols()) + 1, 0);
  std::vector<index_t> cols(static_cast<std::size_t>(a.nnz()));
  std::vector<T> vals(static_cast<std::size_t>(a.nnz()));
  const bool parallel = pool != nullptr && pool->size() > 1 && a.nrows() > 0;
  const index_t nchunks =
      parallel ? pool->num_chunks(a.nrows()) : (a.nrows() > 0 ? 1 : 0);
  std::vector<std::vector<index_t>> hist(static_cast<std::size_t>(nchunks));
  detail::run_chunked(
      pool, parallel, a.nrows(), [&](index_t chunk, index_t lo, index_t hi) {
        auto& h = hist[static_cast<std::size_t>(chunk)];
        h.assign(static_cast<std::size_t>(a.ncols()), 0);
        for (index_t r = lo; r < hi; ++r) {
          for (const index_t c : a.row_cols(r)) {
            ++h[static_cast<std::size_t>(c)];
          }
        }
      });
  detail::stitch_bucket_cursors(hist, row_ptr, a.ncols());
  detail::run_chunked(
      pool, parallel, a.nrows(), [&](index_t chunk, index_t lo, index_t hi) {
        auto& cur = hist[static_cast<std::size_t>(chunk)];
        for (index_t r = lo; r < hi; ++r) {
          const auto cs = a.row_cols(r);
          const auto vs = a.row_vals(r);
          for (std::size_t k = 0; k < cs.size(); ++k) {
            const auto slot = static_cast<std::size_t>(
                cur[static_cast<std::size_t>(cs[k])]++);
            cols[slot] = r;
            vals[slot] = vs[k];
          }
        }
      });
  Csr<T> out(a.ncols(), a.nrows(), std::move(row_ptr), std::move(cols),
             std::move(vals));
  I2A_ENSURES(out.is_canonical(), "transpose: non-canonical CSR");
  return out;
}

}  // namespace i2a::sparse
