#pragma once
/// \file sparse/spgemm.hpp
/// \brief Sparse general matrix-matrix multiply over an arbitrary
///        operator pair ⊕.⊗: one fused chunk-slab engine with two row
///        kernels, the dense-accumulator scatter (Gustavson) and the
///        k-way heap merge.
///
/// All kernels implement the *sparse shortcut* semantics: only
/// stored⊗stored terms enter the ⊕ fold. By Theorem II.1 this equals the
/// full fold whenever the pair conforms (zero is an annihilator, the
/// carrier is zero-sum-free and has no zero divisors) — the seven paper
/// pairs all qualify. Which kernel folds a row is therefore an
/// implementation detail: kernels differ only in the ⊕ order of
/// colliding terms, which no exactly associative carrier can see.
///
/// Engine shape. Each row chunk computes its rows once into a contiguous
/// slab — the scatter (resp. the merge) *is* the symbolic count, so
/// exact per-row sizes fall out as a byproduct — and a prefix sum
/// stitches each slab into the final arrays with one block copy, or
/// moves a serial run's slab out copy-free. A row with a single stored
/// A entry is B(k,:) mapped through ⊗ and skips both kernels.
///
/// `SpGemmAlgo::kAuto` picks the kernel from the output width alone:
/// the dense accumulator while it stays cache-comfortable
/// (`b.ncols() <= 2^15`), the heap merge past that.
///
/// One shape skips the engine. When `spgemm_at_b` gets two `Csr`
/// operands that store exactly one entry per row (row pointer = the
/// identity ramp, as every incidence array's is) and kAuto, Aᵀ ⊕.⊗ B
/// has one ⊗-term per row e, at (col_A(e), col_B(e)). The row-singleton
/// fold buckets, sorts and ⊕-folds those m terms directly, in
/// increasing e, with O(m) scratch and no transpose: bitwise equal to
/// forced kGustavson on any carrier. Every other `spgemm_at_b` call
/// (forced kGustavson/kHeap, keys too wide to pack, any other operand
/// shape) is `spgemm(p, transpose(a), b)`, and that engine route stays
/// the fold's differential oracle.
///
/// Scratch (dense accumulator, merge heap, slabs) is chunk-local and
/// reused across rows: zero per-row heap allocations in steady state.
///
/// Parallel runs use ThreadPool::parallel_for_chunks; because every row
/// lands at a prefix-sum-determined offset and each row's computation is
/// independent and deterministic, the output is byte-identical across
/// pool sizes (including serial). The fold sorts by a total order, so
/// the same holds for it.


#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

enum class SpGemmAlgo {
  kGustavson,  ///< dense accumulator + touched-column list (SPA)
  kHeap,       ///< k-way merge of B rows via a binary heap
  kAuto,       ///< kGustavson up to 2^15 output columns, kHeap past that
};

namespace detail {

/// Intermediate-product count of output row `i`: Σ_k |B(k,:)| over the
/// stored k of A(i,:). Upper-bounds the row nnz; exact when no column
/// collides.
template <typename T>
index_t row_flops(const Csr<T>& a, const Csr<T>& b, index_t i) {
  index_t f = 0;
  for (const index_t k : a.row_cols(i)) f += b.row_nnz(k);
  return f;
}

/// One stream of the k-way merge: `col` is the head column, `ka` the
/// A-entry the stream belongs to, `pos` the cursor within the B row.
struct HeapCursor {
  index_t col;
  index_t ka;
  index_t pos;
};

/// Min-heap-on-column sift-down for the merge cursors. The merge uses
/// replace-top (mutate the root, sift once) instead of pop+push, halving
/// the sift work per stream advance. Equal columns pop in whatever order
/// the (fully deterministic) heap structure yields — per-row determinism
/// is all the byte-identical-across-pool-sizes guarantee needs.
inline void cursor_sift_down(std::vector<HeapCursor>& h, std::size_t i) {
  const std::size_t n = h.size();
  const HeapCursor x = h[i];
  for (;;) {
    std::size_t kid = 2 * i + 1;
    if (kid >= n) break;
    if (kid + 1 < n && h[kid + 1].col < h[kid].col) ++kid;
    if (h[kid].col >= x.col) break;
    h[i] = h[kid];
    i = kid;
  }
  h[i] = x;
}

inline void cursor_heapify(std::vector<HeapCursor>& h) {
  for (std::size_t i = h.size() / 2; i-- > 0;) cursor_sift_down(h, i);
}

/// All chunk-local working memory, allocated lazily per kernel and
/// reused across every row of the chunk.
template <typename T>
struct ChunkScratch {
  // Gustavson: dense accumulator + generation stamps + touched list.
  std::vector<T> acc;
  std::vector<index_t> stamp;
  std::vector<index_t> touched;
  index_t generation = 0;
  // Heap: merge cursors + per-stream B-row hoists, so the pop loop never
  // reconstructs spans.
  std::vector<HeapCursor> heap;
  std::vector<const index_t*> stream_bcols;
  std::vector<const T*> stream_bvals;
  std::vector<index_t> stream_blen;

  void ensure_dense(index_t ncols) {
    if (stamp.size() < static_cast<std::size_t>(ncols)) {
      acc.resize(static_cast<std::size_t>(ncols));
      stamp.assign(static_cast<std::size_t>(ncols), index_t{-1});
      generation = 0;
    }
  }
};

/// One chunk's output: its rows' entries, concatenated in row order.
template <typename T>
struct Slab {
  std::vector<index_t> cols;
  std::vector<T> vals;
};

/// Gustavson row kernel: scatter row `i` into the dense accumulator,
/// then append the sorted touched columns and their folded values to
/// the slab.
template <typename P, typename T>
void gustavson_row(const P& p, const Csr<T>& a, const Csr<T>& b, index_t i,
                   ChunkScratch<T>& s, Slab<T>& slab) {
  const index_t gen = s.generation++;
  s.touched.clear();
  const auto acols = a.row_cols(i);
  const auto avals = a.row_vals(i);
  for (std::size_t ka = 0; ka < acols.size(); ++ka) {
    const index_t k = acols[ka];
    const T av = avals[ka];
    const auto bcols = b.row_cols(k);
    const auto bvals = b.row_vals(k);
    for (std::size_t kb = 0; kb < bcols.size(); ++kb) {
      const index_t j = bcols[kb];
      const T term = p.mul(av, bvals[kb]);
      auto& st = s.stamp[static_cast<std::size_t>(j)];
      if (st != gen) {
        st = gen;
        s.acc[static_cast<std::size_t>(j)] = term;
        s.touched.push_back(j);
      } else {
        s.acc[static_cast<std::size_t>(j)] =
            p.add(s.acc[static_cast<std::size_t>(j)], term);
      }
    }
  }
  std::sort(s.touched.begin(), s.touched.end());
  for (const index_t j : s.touched) {
    slab.cols.push_back(j);
    slab.vals.push_back(s.acc[static_cast<std::size_t>(j)]);
  }
}

/// Heap row kernel: k-way merge of the B rows named by A(i,:), appending
/// (col, value) pairs to the slab in strictly increasing column order —
/// no sort, no accumulator.
template <typename P, typename T>
void heap_merge_row(const P& p, const Csr<T>& a, const Csr<T>& b, index_t i,
                    ChunkScratch<T>& s, Slab<T>& slab) {
  auto& heap = s.heap;
  heap.clear();
  s.stream_bcols.clear();
  s.stream_bvals.clear();
  s.stream_blen.clear();
  const auto acols = a.row_cols(i);
  const auto avals = a.row_vals(i);
  for (std::size_t ka = 0; ka < acols.size(); ++ka) {
    const auto bcols = b.row_cols(acols[ka]);
    const auto bvals = b.row_vals(acols[ka]);
    s.stream_bcols.push_back(bcols.data());
    s.stream_bvals.push_back(bvals.data());
    s.stream_blen.push_back(static_cast<index_t>(bcols.size()));
    if (!bcols.empty()) {
      heap.push_back(HeapCursor{bcols[0], static_cast<index_t>(ka), 0});
    }
  }
  cursor_heapify(heap);
  bool open = false;
  index_t cur_col = 0;
  T cur_val{};
  while (!heap.empty()) {
    HeapCursor& top = heap[0];
    const auto ka = static_cast<std::size_t>(top.ka);
    const index_t col = top.col;
    const T term =
        p.mul(avals[ka],
              s.stream_bvals[ka][static_cast<std::size_t>(top.pos)]);
    if (open && col == cur_col) {
      cur_val = p.add(cur_val, term);
    } else {
      if (open) {
        slab.cols.push_back(cur_col);
        slab.vals.push_back(cur_val);
      }
      open = true;
      cur_col = col;
      cur_val = term;
    }
    if (top.pos + 1 < s.stream_blen[ka]) {
      // Replace-top: advance the stream in place, one sift.
      ++top.pos;
      top.col = s.stream_bcols[ka][static_cast<std::size_t>(top.pos)];
      cursor_sift_down(heap, 0);
    } else {
      heap[0] = heap.back();
      heap.pop_back();
      if (!heap.empty()) cursor_sift_down(heap, 0);
    }
  }
  if (open) {
    slab.cols.push_back(cur_col);
    slab.vals.push_back(cur_val);
  }
}

// run_chunked — the shared fork/join driver — lives in sparse/csr.hpp's
// detail namespace: the COO→CSR assembly engine and the parallel
// transpose use the same chunk decomposition.

/// The SpGEMM engine (shape in the file comment). Slabs grow
/// geometrically, amortized across the chunk, so peak memory is
/// O(output + slack) regardless of the flops/nnz compression ratio.
template <typename P>
Csr<typename P::value_type> spgemm_chunk_slab(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b, SpGemmAlgo algo,
    util::ThreadPool* pool) {
  using T = typename P::value_type;
  // Injection site: the product's working-set allocations. A fire means
  // the product produced nothing; both operands are untouched, so callers
  // staging a batch delta lose only that staging attempt.
  I2A_FAILPOINT("spgemm.numeric.alloc");
  const index_t nrows = a.nrows();
  const index_t b_ncols = b.ncols();
  if (algo == SpGemmAlgo::kAuto) {
    algo = b_ncols <= (index_t{1} << 15) ? SpGemmAlgo::kGustavson
                                         : SpGemmAlgo::kHeap;
  }
  const bool parallel = pool != nullptr && pool->size() > 1 && nrows > 0;
  const index_t nchunks = parallel ? pool->num_chunks(nrows) : 1;
  std::vector<ChunkScratch<T>> scratch(static_cast<std::size_t>(nchunks));
  std::vector<Slab<T>> slabs(static_cast<std::size_t>(nchunks));
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);

  run_chunked(
      pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        auto& slab = slabs[static_cast<std::size_t>(chunk)];
        if (algo == SpGemmAlgo::kGustavson) s.ensure_dense(b_ncols);
        // Reserve the chunk's flops upper bound (capped per row by the
        // output width) so appends almost never reallocate mid-chunk.
        // The reserve itself is capped so a pathological compression
        // ratio (flops >> nnz) can't balloon peak memory — past the cap
        // the slab just grows geometrically like any vector.
        const index_t reserve_cap =
            std::max<index_t>(index_t{1} << 20, 2 * b.nnz());
        index_t ub = 0;
        for (index_t i = lo; i < hi; ++i) {
          ub += std::min(row_flops(a, b, i), b_ncols);
        }
        ub = std::min(ub, reserve_cap);
        slab.cols.reserve(static_cast<std::size_t>(ub));
        slab.vals.reserve(static_cast<std::size_t>(ub));
        for (index_t i = lo; i < hi; ++i) {
          const auto acols = a.row_cols(i);
          const std::size_t before = slab.cols.size();
          if (acols.size() == 1) {
            // Single stream: the row is B(k,:) mapped through ⊗ — no
            // accumulator, no merge, no sort.
            const T av = a.row_vals(i)[0];
            const auto bcols = b.row_cols(acols[0]);
            const auto bvals = b.row_vals(acols[0]);
            slab.cols.insert(slab.cols.end(), bcols.begin(), bcols.end());
            for (std::size_t kb = 0; kb < bvals.size(); ++kb) {
              slab.vals.push_back(p.mul(av, bvals[kb]));
            }
          } else if (!acols.empty()) {
            if (algo == SpGemmAlgo::kGustavson) {
              gustavson_row(p, a, b, i, s, slab);
            } else {
              heap_merge_row(p, a, b, i, s, slab);
            }
          }
          row_ptr[static_cast<std::size_t>(i) + 1] =
              static_cast<index_t>(slab.cols.size() - before);
        }
      });

  for (index_t i = 0; i < nrows; ++i) {
    row_ptr[static_cast<std::size_t>(i) + 1] +=
        row_ptr[static_cast<std::size_t>(i)];
  }

  // A single chunk's slab already is the concatenated output — move it
  // out instead of stitching (the serial path pays no copy at all),
  // unless the upper-bound reserve overshot badly enough that keeping
  // the slack capacity would waste real memory.
  if (nchunks == 1 &&
      slabs[0].cols.capacity() <=
          slabs[0].cols.size() + slabs[0].cols.size() / 8 + 64) {
    return Csr<T>(nrows, b_ncols, std::move(row_ptr),
                  std::move(slabs[0].cols), std::move(slabs[0].vals));
  }

  std::vector<index_t> cols(static_cast<std::size_t>(row_ptr.back()));
  std::vector<T> vals(static_cast<std::size_t>(row_ptr.back()));

  // Stitch: chunk `c` covers the same contiguous row range as in the
  // compute pass (the decomposition is a pure function of (n, size())),
  // so each slab lands with one contiguous copy.
  run_chunked(pool, parallel, nrows, [&](index_t chunk, index_t lo, index_t) {
    const auto& slab = slabs[static_cast<std::size_t>(chunk)];
    const auto dst =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(lo)]);
    std::copy(slab.cols.begin(), slab.cols.end(), cols.begin() + dst);
    std::copy(slab.vals.begin(), slab.vals.end(), vals.begin() + dst);
  });

  return Csr<T>(nrows, b_ncols, std::move(row_ptr), std::move(cols),
                std::move(vals));
}

/// True iff `a` stores exactly one entry per row: its row pointer is the
/// identity ramp 0..nrows, as every incidence array's is.
template <typename T>
bool row_singleton(const Csr<T>& a) {
  const auto& ptr = a.row_ptr();
  for (std::size_t e = 0; e < ptr.size(); ++e) {
    if (ptr[e] != static_cast<index_t>(e)) return false;
  }
  return true;
}

/// Layout of the row-singleton fold's m terms. Terms go to buckets of
/// 2^shift consecutive output rows, at most max(1, m/16) of them, so
/// every histogram is O(m). A term's sort key packs, high to low, its row
/// within the bucket, its column and its slot (its position after the
/// bucket scatter, increasing in e within a bucket), which needs
/// shift + col_bits + slot_bits <= 63 (so no shift reaches 64).
struct FoldPlan {
  int shift = 0;
  int col_bits = 0;
  int slot_bits = 0;
  index_t nbuckets = 0;
};

/// The plan for an (m terms) → nrows × ncols fold, or nullopt when the
/// packed keys would not fit in 63 bits (the engine computes those).
inline std::optional<FoldPlan> plan_fold(index_t m, index_t nrows,
                                         index_t ncols) {
  FoldPlan plan;
  if (m == 0) return plan;
  // m > 0 implies nrows, ncols > 0: every operand row stores a column.
  const index_t max_buckets = std::max<index_t>(1, m / 16);
  while (((nrows - 1) >> plan.shift) + 1 > max_buckets) ++plan.shift;
  plan.nbuckets = ((nrows - 1) >> plan.shift) + 1;
  const auto bits = [](index_t x) {
    return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(x)));
  };
  plan.col_bits = bits(ncols - 1);
  plan.slot_bits = bits(m - 1);
  if (plan.shift + plan.col_bits + plan.slot_bits > 63) return std::nullopt;
  return plan;
}

/// Aᵀ ⊕.⊗ B for row-singleton A and B (both m × ·): row e contributes the
/// single term A(e,·) ⊗ B(e,·) at (col_A(e), col_B(e)), and each output
/// entry is the ⊕-fold of its terms in increasing e — the order
/// Gustavson's scatter visits them in, so the bytes equal forced
/// `kGustavson` on any carrier.
///
/// Shape (`plan` from `plan_fold`): a stable count/scatter of the terms
/// into their buckets, then per bucket a sort of the packed keys, a
/// count, and — after one prefix sum over the buckets — the fold into
/// the exact-size output. Buckets own disjoint output-row ranges, so
/// each writes its slice of the row pointer, the only O(n) allocation.
/// Bucket work is split by term count, not bucket count, so a skewed
/// (power-law) source distribution still spreads over the pool. Keys
/// are distinct (each holds its slot), hence the bytes are the same for
/// every pool size.
template <typename P>
Csr<typename P::value_type> fold_row_singletons(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b, const FoldPlan& plan,
    util::ThreadPool* pool) {
  using T = typename P::value_type;
  // Injection site: the fold is the product, so it shares the engine's
  // site and fires before the first allocation.
  I2A_FAILPOINT("spgemm.numeric.alloc");
  const index_t m = a.nrows();
  const index_t nrows = a.ncols();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(nrows) + 1, 0);
  if (m == 0) return Csr<T>(nrows, b.ncols(), std::move(row_ptr), {}, {});

  const auto& src = a.cols();
  const auto& dst = b.cols();
  const int shift = plan.shift;
  const int cs_bits = plan.col_bits + plan.slot_bits;
  const index_t nbuckets = plan.nbuckets;
  const std::uint64_t col_mask = (std::uint64_t{1} << plan.col_bits) - 1;
  const std::uint64_t slot_mask = (std::uint64_t{1} << plan.slot_bits) - 1;
  const auto row_mask = (index_t{1} << shift) - 1;
  const auto bucket_of = [&](index_t e) {
    return static_cast<std::size_t>(src[static_cast<std::size_t>(e)] >>
                                    shift);
  };
  const bool parallel = pool != nullptr && pool->size() > 1;
  const index_t nchunks = parallel ? pool->num_chunks(m) : 1;

  std::vector<std::vector<index_t>> hist(static_cast<std::size_t>(nchunks));
  run_chunked(pool, parallel, m, [&](index_t chunk, index_t lo, index_t hi) {
    auto& h = hist[static_cast<std::size_t>(chunk)];
    h.assign(static_cast<std::size_t>(nbuckets), 0);
    for (index_t e = lo; e < hi; ++e) ++h[bucket_of(e)];
  });
  std::vector<index_t> bucket_ptr(static_cast<std::size_t>(nbuckets) + 1);
  stitch_bucket_cursors(hist, bucket_ptr, nbuckets);
  // The scatter is stable, so within a bucket slots increase with e.
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(m));
  std::vector<T> terms(static_cast<std::size_t>(m));
  const auto& avals = a.vals();
  const auto& bvals = b.vals();
  run_chunked(pool, parallel, m, [&](index_t chunk, index_t lo, index_t hi) {
    auto& cur = hist[static_cast<std::size_t>(chunk)];
    for (index_t e = lo; e < hi; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const auto slot = static_cast<std::size_t>(cur[bucket_of(e)]++);
      keys[slot] =
          (static_cast<std::uint64_t>(src[ue] & row_mask) << cs_bits) |
          (static_cast<std::uint64_t>(dst[ue]) << plan.slot_bits) | slot;
      terms[slot] = p.mul(avals[ue], bvals[ue]);
    }
  });
  hist = {};

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
  const auto entry = [&](std::uint64_t key) { return key >> plan.slot_bits; };

  // Sort each bucket and count its distinct (row, col) entries.
  std::vector<index_t> out_ptr(static_cast<std::size_t>(nbuckets) + 1, 0);
  for_each_bucket([&](index_t bk, auto first, auto last) {
    std::sort(first, last);
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
  std::vector<T> vals(static_cast<std::size_t>(out_ptr.back()));
  for_each_bucket([&](index_t bk, auto first, auto last) {
    auto w = static_cast<std::size_t>(out_ptr[static_cast<std::size_t>(bk)]);
    const index_t base = bk << shift;
    index_t r = base;  // next row whose end is unset
    const index_t r_end = bk + 1 == nbuckets ? nrows : base + row_mask + 1;
    for (auto it = first; it != last;) {
      const index_t row = base + static_cast<index_t>(*it >> cs_bits);
      for (; r < row; ++r) {
        row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(w);
      }
      cols[w] = static_cast<index_t>(entry(*it) & col_mask);
      T acc = terms[static_cast<std::size_t>(*it & slot_mask)];
      for (++it; it != last && entry(*it) == entry(*(it - 1)); ++it) {
        acc = p.add(acc, terms[static_cast<std::size_t>(*it & slot_mask)]);
      }
      vals[w++] = acc;
    }
    for (; r < r_end; ++r) {
      row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(w);
    }
  });
  return Csr<T>(nrows, b.ncols(), std::move(row_ptr), std::move(cols),
                std::move(vals));
}

}  // namespace detail

/// C = A ⊕.⊗ B with sparse-shortcut semantics. `pool` enables row-chunk
/// parallelism (each chunk owns private scratch and an output slab);
/// null or single-thread pools run serially. Output is byte-identical
/// across pool sizes. The `Semiring` constraint rejects structurally
/// malformed pairs and pairs that declare a broken ⊕/⊗ law at compile
/// time (algebra/concepts.hpp). Throws `std::invalid_argument` when the
/// inner dimensions disagree, in every build.
template <typename P>
  requires algebra::Semiring<P>
Csr<typename P::value_type> spgemm(const P& p,
                                   const Csr<typename P::value_type>& a,
                                   const Csr<typename P::value_type>& b,
                                   SpGemmAlgo algo = SpGemmAlgo::kGustavson,
                                   util::ThreadPool* pool = nullptr) {
  if (a.ncols() != b.nrows()) {
    throw std::invalid_argument("spgemm: inner dimensions disagree");
  }
  I2A_EXPECTS(a.is_canonical(), "spgemm: A not canonical CSR");
  I2A_EXPECTS(b.is_canonical(), "spgemm: B not canonical CSR");
  auto c = detail::spgemm_chunk_slab(p, a, b, algo, pool);
  I2A_ENSURES(c.is_canonical(), "spgemm: non-canonical product");
  return c;
}

/// C = Aᵀ ⊕.⊗ B — the paper's product shape (A and B are both tall
/// edge×vertex incidence arrays). With kAuto and two row-singleton
/// operands (incidence arrays) it runs the row-singleton fold (file
/// comment); every other case is `spgemm(p, transpose(a, pool), b)`,
/// with the transpose built on the same pool. Throws
/// `std::invalid_argument` when A and B have different row counts, in
/// every build.
template <typename P>
  requires algebra::Semiring<P>
Csr<typename P::value_type> spgemm_at_b(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b,
    SpGemmAlgo algo = SpGemmAlgo::kGustavson,
    util::ThreadPool* pool = nullptr) {
  if (a.nrows() != b.nrows()) {
    throw std::invalid_argument(
        "spgemm_at_b: Aᵀ inner dimension disagrees with B");
  }
  I2A_EXPECTS(a.is_canonical(), "spgemm_at_b: A not canonical CSR");
  I2A_EXPECTS(b.is_canonical(), "spgemm_at_b: B not canonical CSR");
  if (algo == SpGemmAlgo::kAuto && detail::row_singleton(a) &&
      detail::row_singleton(b)) {
    if (const auto plan = detail::plan_fold(a.nrows(), a.ncols(), b.ncols())) {
      auto c = detail::fold_row_singletons(p, a, b, *plan, pool);
      I2A_ENSURES(c.is_canonical(), "spgemm_at_b: non-canonical product");
      return c;
    }
  }
  return spgemm(p, transpose(a, pool), b, algo, pool);
}

}  // namespace i2a::sparse
