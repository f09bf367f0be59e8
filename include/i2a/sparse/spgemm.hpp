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
/// has one ⊗-term per row e, at (col_A(e), col_B(e)). The build kernel
/// (`detail::build_csr`, sparse/csr.hpp) ⊕-folds those m terms directly,
/// in increasing e, with O(m) scratch and no transpose, for any shape:
/// bitwise equal to forced kGustavson on any carrier. Every other
/// `spgemm_at_b` call (forced kGustavson/kHeap, any other operand shape)
/// is `spgemm(p, transpose(a), b)`, and that engine route stays the
/// kernel's differential oracle.
///
/// Scratch (dense accumulator, merge heap, slabs) is chunk-local and
/// reused across rows: zero per-row heap allocations in steady state.
///
/// Parallel runs use ThreadPool::parallel_for_chunks; because every row
/// lands at a prefix-sum-determined offset and each row's computation is
/// independent and deterministic, the output is byte-identical across
/// pool sizes (including serial). The build kernel sorts by a total
/// order, so the same holds for it.


#include <algorithm>
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
// detail namespace: the build kernel and the parallel transpose use the
// same chunk decomposition.

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
/// operands (incidence arrays) it folds the per-edge ⊗-terms with the
/// build kernel (file comment); every other case is
/// `spgemm(p, transpose(a, pool), b)`, with the transpose built on the
/// same pool. Throws
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
    // Injection site: the kernel is the product, so it shares the
    // engine's site and fires before the kernel allocates.
    I2A_FAILPOINT("spgemm.numeric.alloc");
    using T = typename P::value_type;
    const auto& src = a.cols();
    const auto& dst = b.cols();
    const auto& avals = a.vals();
    const auto& bvals = b.vals();
    return detail::build_csr(
        a.ncols(), b.ncols(), a.nrows(),
        [&](index_t e) {
          const auto ue = static_cast<std::size_t>(e);
          return typename Coo<T>::Entry{src[ue], dst[ue],
                                        p.mul(avals[ue], bvals[ue])};
        },
        [&p](const T& acc, const T& t) { return p.add(acc, t); }, pool);
  }
  return spgemm(p, transpose(a, pool), b, algo, pool);
}

}  // namespace i2a::sparse
