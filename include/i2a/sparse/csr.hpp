#pragma once
/// \file sparse/csr.hpp
/// \brief Compressed sparse row matrix, the workhorse storage for
///        incidence and adjacency arrays, plus the one term-folding build
///        kernel and a parallel counting-sort `transpose`.
///
/// `detail::build_csr` is a sparse build with a duplicate operator (the
/// job of `GrB_Matrix_build`'s `dup`): each stored (i, j) is the left fold
/// with `dup` of the terms that land there, in increasing term index.
/// `Csr::from_coo` calls it serially, each pushed entry a term and `+` or
/// keep-first the `dup`, so FP `kSum` matches the stable-sort reference
/// (tests/csr_reference.hpp) bit for bit. kAuto's `spgemm_at_b` on
/// row-singleton operands calls it on the pool, with the per-edge
/// ⊗-terms and ⊕ (sparse/spgemm.hpp).

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
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

template <typename T>
class Csr;

namespace detail {

/// Shared fork/join driver of `build_csr`, `transpose` and the SpGEMM
/// engine: serial when no multi-thread pool is given, chunked otherwise,
/// with per-chunk scratch stable across passes (the decomposition is a
/// pure function of (n, pool->size())).
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

/// Layout of a build's sort keys. Terms go to buckets of 2^shift
/// consecutive rows, at most max(1, m/16) of them, so every histogram is
/// O(m). A term's key packs, high to low, its row within the bucket, its
/// column and its slot (its position after the bucket scatter, increasing
/// in e within a bucket): `bits()` of them in all.
struct KeyLayout {
  int shift = 0;
  int col_bits = 0;
  int slot_bits = 0;
  index_t nbuckets = 0;
  int bits() const { return shift + col_bits + slot_bits; }
};

/// The key layout of m > 0 terms into an nrows × ncols array (so both
/// are positive).
inline KeyLayout key_layout(index_t m, index_t nrows, index_t ncols) {
  const auto bits = [](index_t x) {
    return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(x)));
  };
  KeyLayout lay;
  const index_t max_buckets = std::max<index_t>(1, m / 16);
  while (((nrows - 1) >> lay.shift) + 1 > max_buckets) ++lay.shift;
  lay.nbuckets = ((nrows - 1) >> lay.shift) + 1;
  lay.col_bits = bits(ncols - 1);
  lay.slot_bits = bits(m - 1);
  return lay;
}

/// Whether the terms' (row, col) strictly increase with e. Unordered
/// terms usually show it within the first few.
template <typename TermFn>
bool terms_ordered(index_t m, const TermFn& term) {
  index_t row = -1;
  index_t col = 0;
  for (index_t e = 0; e < m; ++e) {
    const auto t = term(e);
    if (t.row == row ? t.col <= col : t.row < row) return false;
    row = t.row;
    col = t.col;
  }
  return true;
}

/// Terms in strictly increasing (row, col) order already are the output,
/// one entry each: one serial pass copies them and fills the row pointer.
template <typename TermFn>
auto build_ordered(index_t nrows, index_t ncols, index_t m,
                   const TermFn& term, std::vector<index_t> row_ptr) {
  using T = decltype(term(index_t{0}).val);
  std::vector<index_t> cols(static_cast<std::size_t>(m));
  std::vector<T> vals(static_cast<std::size_t>(m));
  index_t r = 0;  // rows below r have their ends set
  for (index_t e = 0; e < m; ++e) {
    auto t = term(e);
    for (; r < t.row; ++r) row_ptr[static_cast<std::size_t>(r) + 1] = e;
    cols[static_cast<std::size_t>(e)] = t.col;
    vals[static_cast<std::size_t>(e)] = std::move(t.val);
  }
  for (; r < nrows; ++r) row_ptr[static_cast<std::size_t>(r) + 1] = m;
  return Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
                std::move(vals));
}

/// The bucketed build for one key width (`Key` holds `lay.bits()`), in
/// four passes, each chunked over the terms when `pool` has two or more
/// threads: a bucket histogram; a stable scatter of the keys and values
/// into their buckets; per bucket, a sort of the keys (skipped when they
/// already increase) and a count of its distinct (row, col) pairs; then,
/// after one prefix sum over the buckets, the fold of each bucket's runs
/// into the exact-size output. Buckets own disjoint row ranges, so each
/// writes its own slice of the row pointer. Bucket work is split by term
/// count, not bucket count, so a skewed (power-law) row distribution
/// still spreads over the pool. Keys are distinct (each holds its slot),
/// hence the bytes are the same for every pool size.
template <typename Key, typename TermFn, typename Dup>
auto build_csr_keyed(index_t nrows, index_t ncols, index_t m,
                     const KeyLayout& lay, TermFn term, const Dup& dup,
                     util::ThreadPool* pool, std::vector<index_t> row_ptr) {
  using T = decltype(term(index_t{0}).val);
  const int shift = lay.shift;
  const int cs_bits = lay.col_bits + lay.slot_bits;
  const index_t nbuckets = lay.nbuckets;
  const Key col_mask = (Key{1} << lay.col_bits) - 1;
  const Key slot_mask = (Key{1} << lay.slot_bits) - 1;
  const index_t row_mask = (index_t{1} << shift) - 1;
  const bool parallel = pool != nullptr && pool->size() > 1;
  std::vector<index_t> bucket_ptr(static_cast<std::size_t>(nbuckets) + 1);
  std::vector<Key> keys;
  std::vector<T> vals;
  {
    // A term source that owns its terms (`from_coo`'s buffer) is freed
    // as soon as they are scattered.
    const TermFn source = std::move(term);
    std::vector<std::vector<index_t>> hist(
        static_cast<std::size_t>(parallel ? pool->num_chunks(m) : 1));
    run_chunked(pool, parallel, m, [&](index_t chunk, index_t lo, index_t hi) {
      auto& h = hist[static_cast<std::size_t>(chunk)];
      h.assign(static_cast<std::size_t>(nbuckets), 0);
      for (index_t e = lo; e < hi; ++e) {
        ++h[static_cast<std::size_t>(source(e).row >> shift)];
      }
    });
    stitch_bucket_cursors(hist, bucket_ptr, nbuckets);
    keys.resize(static_cast<std::size_t>(m));
    vals.resize(static_cast<std::size_t>(m));
    // The scatter is stable, so within a bucket slots increase with e.
    run_chunked(pool, parallel, m, [&](index_t chunk, index_t lo, index_t hi) {
      auto& cur = hist[static_cast<std::size_t>(chunk)];
      for (index_t e = lo; e < hi; ++e) {
        auto t = source(e);
        const auto slot = static_cast<std::size_t>(
            cur[static_cast<std::size_t>(t.row >> shift)]++);
        keys[slot] = (static_cast<Key>(t.row & row_mask) << cs_bits) |
                     (static_cast<Key>(t.col) << lay.slot_bits) |
                     static_cast<Key>(slot);
        vals[slot] = std::move(t.val);
      }
    });
  }

  // Chunk c owns the buckets that start inside its term range [lo, hi).
  const auto first_bucket = [&](index_t pos) {
    if (pos == m) return nbuckets;
    return static_cast<index_t>(
        std::lower_bound(bucket_ptr.begin(), bucket_ptr.end() - 1, pos) -
        bucket_ptr.begin());
  };
  const auto for_each_bucket = [&](const auto& body) {
    run_chunked(pool, parallel, m, [&](index_t, index_t lo, index_t hi) {
      for (index_t bk = first_bucket(lo), end = first_bucket(hi); bk < end;
           ++bk) {
        body(bk, keys.begin() + bucket_ptr[static_cast<std::size_t>(bk)],
             keys.begin() + bucket_ptr[static_cast<std::size_t>(bk) + 1]);
      }
    });
  };
  const auto entry = [&](Key key) { return key >> lay.slot_bits; };

  // Sort each bucket and count its distinct (row, col) entries.
  std::vector<index_t> out_ptr(static_cast<std::size_t>(nbuckets) + 1, 0);
  for_each_bucket([&](index_t bk, auto first, auto last) {
    if (!std::is_sorted(first, last)) std::sort(first, last);
    index_t cnt = 0;
    for (auto it = first; it != last; ++it) {
      cnt += it == first || entry(*it) != entry(*(it - 1));
    }
    out_ptr[static_cast<std::size_t>(bk) + 1] = cnt;
  });
  for (std::size_t bk = 0; bk < static_cast<std::size_t>(nbuckets); ++bk) {
    out_ptr[bk + 1] += out_ptr[bk];
  }

  // Fold each bucket's runs into place and fill its row-pointer slice.
  std::vector<index_t> cols(static_cast<std::size_t>(out_ptr.back()));
  std::vector<T> out_vals(static_cast<std::size_t>(out_ptr.back()));
  for_each_bucket([&](index_t bk, auto first, auto last) {
    auto w = static_cast<std::size_t>(out_ptr[static_cast<std::size_t>(bk)]);
    const index_t base = bk << shift;
    index_t r = base;  // next row whose end is unset
    const index_t r_end = bk + 1 == nbuckets ? nrows : base + row_mask + 1;
    for (auto it = first; it != last;) {
      const auto row = base + static_cast<index_t>(*it >> cs_bits);
      for (; r < row; ++r) {
        row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(w);
      }
      cols[w] = static_cast<index_t>(entry(*it) & col_mask);
      T acc = vals[static_cast<std::size_t>(*it & slot_mask)];
      for (++it; it != last && entry(*it) == entry(*(it - 1)); ++it) {
        acc = dup(acc, vals[static_cast<std::size_t>(*it & slot_mask)]);
      }
      out_vals[w++] = std::move(acc);
    }
    for (; r < r_end; ++r) {
      row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(w);
    }
  });
  return Csr<T>(nrows, ncols, std::move(row_ptr), std::move(cols),
                std::move(out_vals));
}

/// Build an nrows × ncols `Csr` from m terms with a duplicate operator:
/// `term(e)` yields term e's (row, col, val) as a `Coo<T>::Entry`, and
/// each stored (i, j) is the left fold `dup(dup(t₀, t₁), t₂)…` of its
/// terms in increasing e. Columns come out strictly increasing per row,
/// and the bytes are the same for every pool. Scratch is O(m) beside the
/// output's n + 1 row pointer. Terms that already arrive in strictly
/// increasing (row, col) order are copied as they are
/// (`build_ordered`); all others are bucketed, sorted and folded
/// (`build_csr_keyed`). The shape must not be negative and every term
/// must lie inside it, unchecked in Release: `from_coo` checks its
/// buffer first, and kAuto's shape and terms come from canonical
/// operands.
///
/// The key width comes from the shape: 64 bits when the layout fits in
/// 63, else 128. The row pointer is allocated first, so n < 2^60, and
/// the row-in-bucket and slot bits together take at most
/// bit_width(n − 1) + 5 ≤ 65: the layout always fits in 128.
template <typename TermFn, typename Dup>
auto build_csr(index_t nrows, index_t ncols, index_t m, TermFn term,
               const Dup& dup, util::ThreadPool* pool) {
  using T = decltype(term(index_t{0}).val);
  I2A_EXPECTS(nrows >= 0 && ncols >= 0, "build_csr: negative dimension");
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  Csr<T> out;
  if (terms_ordered(m, term)) {
    out = build_ordered(nrows, ncols, m, term, std::move(row_ptr));
  } else if (const auto lay = key_layout(m, nrows, ncols); lay.bits() <= 63) {
    out = build_csr_keyed<std::uint64_t>(nrows, ncols, m, lay,
                                         std::move(term), dup, pool,
                                         std::move(row_ptr));
  } else {
    out = build_csr_keyed<unsigned __int128>(nrows, ncols, m, lay,
                                             std::move(term), dup, pool,
                                             std::move(row_ptr));
  }
  I2A_ENSURES(out.is_canonical(), "build_csr: non-canonical CSR");
  return out;
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

  /// Group + order + deduplicate + compress a COO buffer: one serial
  /// `detail::build_csr` over its entries in push order, with `+`
  /// (`kSum`) or keep-first (`kKeepFirst`) as the duplicate operator.
  /// Column indices within each row come out strictly increasing. Throws
  /// `std::invalid_argument` for a negative dimension and
  /// `std::out_of_range`, in every build, for an entry outside
  /// [0, nrows) × [0, ncols) — `Coo::entries()` and a Release `push` let
  /// one in.
  static Csr from_coo(Coo<T> coo, DupPolicy policy = DupPolicy::kSum) {
    const index_t nrows = coo.nrows();
    const index_t ncols = coo.ncols();
    if (nrows < 0 || ncols < 0) {
      throw std::invalid_argument("Csr::from_coo: negative dimension");
    }
    for (const auto& en : coo.entries()) {
      if (en.row < 0 || en.row >= nrows || en.col < 0 || en.col >= ncols) {
        throw std::out_of_range("Csr::from_coo: entry outside the shape");
      }
    }
    const auto m = static_cast<index_t>(coo.nnz());
    return detail::build_csr(
        nrows, ncols, m,
        [coo = std::move(coo)](index_t k) {
          return coo.entries()[static_cast<std::size_t>(k)];
        },
        [policy](const T& acc, const T& v) {
          return policy == DupPolicy::kSum ? static_cast<T>(acc + v) : acc;
        },
        nullptr);
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
