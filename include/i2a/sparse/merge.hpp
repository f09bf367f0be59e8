#pragma once
/// \file sparse/merge.hpp
/// \brief Parallel semiring ⊕-merge: fold k same-shape sparse arrays
///        into one, entrywise, with the caller's ⊕ — the kernel behind
///        streaming adjacency maintenance (the run-list ladder in
///        stream/shard.hpp).
///
/// The GraphBLAS framing (Kepner et al., 1606.05790) treats a sparse
/// update as ⊕-accumulation into an existing array: C = A ⊕ ΔA. When ⊕
/// is the fold of a conforming operator pair (Theorem II.1's hypothesis)
/// the merged array is exactly the adjacency array of the concatenated
/// edge lists, because the theorem's fold over parallel edges is
/// associative — folding per batch and then folding the folds is the
/// same as folding everything at once. The merge itself never needs ⊗:
/// each input row is already a folded adjacency row, so only ⊕ appears.
///
/// `merge_add_k<In, Out>` is the one entry point. Every input has the
/// layout `In`, and the output has the layout `Out` (by default `In`).
/// Three layout pairs exist, one per caller:
///
///   * `Dcsr` → `Dcsr` — the ladder's compactions (stream/shard.hpp);
///   * `Dcsr` → `Csr`  — `PinnedSnapshot::materialize()`, which widens
///     each 32-bit column id as it writes it;
///   * `Csr`  → `Csr`  — `merge(p, a, b)` and the dense runs of the
///     bench/e2e layer replay.
///
/// The passes visit only *candidate* rows. With hypersparse inputs (sparse/
/// dcsr.hpp) these are the union of the row-id lists, so a merge costs
/// O(k · stored rows + entries) and not O(n); with dense inputs they are
/// every row, skipped after one emptiness test per input.
///
/// Engine shape — the same two-pass scheme as the assembly engine
/// (sparse/csr.hpp):
///
///   1. **count** — chunks of candidate rows load each row's non-empty
///      inputs into a cursor frontier (chunk-id-indexed scratch reused
///      across both passes via `ThreadPool::parallel_for_chunks`) and
///      record each output row's merged size;
///   2. **stitch** — one serial prefix sum turns the counts into the
///      final row offsets;
///   3. **scatter + fold** — the same chunk decomposition re-walks the
///      cursors and writes every merged entry straight into its final
///      slot, folding equal columns with ⊕ in *run order* (runs[0]
///      first). Run order is how callers encode batch age, which is what
///      keeps a non-commutative or FP ⊕ bitwise-reproducible.
///
/// Every row lands at a prefix-sum-determined offset and each row's
/// merge is independent and deterministic, so the output is
/// byte-identical across pool sizes (serial included). Exceptions thrown
/// by ⊕ in a worker chunk propagate to the caller (the pool captures and
/// rethrows the first one); the partially built output is discarded.
///
/// Every stored entry survives, stored zeros included, matching what
/// the SpGEMM engine produces: for conforming pairs (zero-sum-free
/// carrier) a fold of nonzeros can never manufacture a zero, so the
/// adjacency-maintenance path stays byte-identical to a full rebuild.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace i2a::sparse {

namespace detail {

/// The k-way row merge's cursor frontier: one (cols, vals, len) cursor
/// per input that stores the row being merged, in input order, over
/// column ids of the inputs' type `C`. Reused across every row of a
/// chunk and across the count and scatter passes (which index it by the
/// same chunk id), and by `fold_row`.
template <typename T, typename C>
struct MergeScratch {
  std::vector<const C*> cols;        ///< loaded row j's cursor (cols)
  std::vector<const T*> vals;        ///< loaded row j's cursor (vals)
  std::vector<index_t> len;          ///< entries left in loaded row j
  std::size_t loaded = 0;            ///< rows in the frontier
  /// Merge kernel only: hypersparse input i's next stored-row position.
  std::vector<std::size_t> pos;

  /// Empty the frontier, with room for rows from `k` inputs.
  void reset(std::size_t k) {
    cols.resize(k);
    vals.resize(k);
    len.resize(k);
    loaded = 0;
  }
  /// Add one input's row to the frontier (after every older input's).
  void push(std::span<const C> c, std::span<const T> v) {
    cols[loaded] = c.data();
    vals[loaded] = v.data();
    len[loaded] = static_cast<index_t>(c.size());
    ++loaded;
  }
};

/// Fold the rows loaded into `s` and call `emit(col, folded_value)` once
/// per merged column, strictly increasing, the column widened to
/// `index_t`. Folding visits the loaded rows in load order — oldest
/// input first — which is the age order callers rely on. `need_vals` =
/// false lets the count pass skip value reads (and ⊕) entirely; `emit`
/// then sees a value-initialized `T`.
template <typename T, typename C, typename Add, typename Emit>
void merge_row_k(MergeScratch<T, C>& s, const Add& add, bool need_vals,
                 const Emit& emit) {
  const std::size_t k = s.loaded;
  index_t live = 0;
  for (std::size_t i = 0; i < k; ++i) live += s.len[i];
  while (live > 0) {
    // Frontier minimum: the next merged column (some row is live, so
    // the minimum is a stored id even when that id is the type's max).
    C mc = std::numeric_limits<C>::max();
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && *s.cols[i] < mc) mc = *s.cols[i];
    }
    // Fold every run holding `mc`, oldest (lowest index) first.
    bool open = false;
    T acc{};
    for (std::size_t i = 0; i < k; ++i) {
      if (s.len[i] > 0 && *s.cols[i] == mc) {
        if (need_vals) {
          acc = open ? add(acc, *s.vals[i]) : *s.vals[i];
        }
        open = true;
        ++s.cols[i];
        ++s.vals[i];
        --s.len[i];
        --live;
      }
    }
    emit(static_cast<index_t>(mc), acc);
  }
}

/// Empty the frontier for a chunk whose first row is `r`; hypersparse
/// inputs also position each cursor at its first stored row ≥ `r`.
template <typename Run, typename T>
void seek_rows(const std::vector<const Run*>& runs, index_t r,
               MergeScratch<T, typename Run::col_type>& s) {
  s.reset(runs.size());
  if constexpr (std::is_same_v<Run, Dcsr<T>>) {
    s.pos.resize(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& ids = runs[i]->row_ids();
      s.pos[i] = static_cast<std::size_t>(
          std::lower_bound(ids.begin(), ids.end(), r) - ids.begin());
    }
  }
}

/// Load row `r` of every input that stores it into the frontier, in
/// input order; false when none does (the row is skipped). Rows must be
/// visited in increasing order after `seek_rows`: a hypersparse input is
/// a cursor over its row ids, a dense one a row-pointer test.
template <typename Run, typename T>
bool load_row(const std::vector<const Run*>& runs, index_t r,
              MergeScratch<T, typename Run::col_type>& s) {
  s.loaded = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& m = *runs[i];
    if constexpr (std::is_same_v<Run, Dcsr<T>>) {
      std::size_t& p = s.pos[i];
      if (p < m.stored_rows() && m.row_ids()[p] == r) {
        const auto k = static_cast<index_t>(p++);
        s.push(m.stored_cols(k), m.stored_vals(k));
      }
    } else {
      const auto ri = static_cast<std::size_t>(r);
      if (m.row_ptr()[ri] != m.row_ptr()[ri + 1]) {
        s.push(m.row_cols(r), m.row_vals(r));
      }
    }
  }
  return s.loaded > 0;
}

/// The sorted union of the inputs' row-id lists: a k-way frontier walk,
/// O(k · union). Sized exactly — a hypersparse merge output keeps this
/// vector as its row ids.
template <typename T>
std::vector<index_t> union_row_ids(const std::vector<const Dcsr<T>*>& runs) {
  const std::size_t k = runs.size();
  std::size_t bound = 0;
  for (const Dcsr<T>* m : runs) bound += m->stored_rows();
  std::vector<index_t> rows;
  rows.reserve(std::min(bound, static_cast<std::size_t>(runs[0]->nrows())));
  std::vector<std::size_t> pos(k, 0);
  for (;;) {
    index_t next = -1;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& ids = runs[i]->row_ids();
      if (pos[i] < ids.size() && (next < 0 || ids[pos[i]] < next)) {
        next = ids[pos[i]];
      }
    }
    if (next < 0) return std::vector<index_t>(rows.begin(), rows.end());
    rows.push_back(next);
    for (std::size_t i = 0; i < k; ++i) {
      const auto& ids = runs[i]->row_ids();
      if (pos[i] < ids.size() && ids[pos[i]] == next) ++pos[i];
    }
  }
}

}  // namespace detail

/// The merge kernel: C = runs[0] ⊕ runs[1] ⊕ … ⊕ runs[k-1], entrywise,
/// all runs the same shape and the layout `In`, output in the layout
/// `Out` — `In` itself, or a dense `Csr` from hypersparse runs, each
/// column id written as `Out`'s `col_type`. `add(a, b)` is ⊕; equal
/// columns fold in run order, so callers encoding batch age as run order
/// get the same fold a single-shot build would perform.
/// Output is byte-identical across pool sizes.
template <template <typename> class In, template <typename> class Out = In,
          typename T, typename Add>
  requires(std::is_same_v<In<T>, Csr<T>> || std::is_same_v<In<T>, Dcsr<T>>) &&
          (std::is_same_v<Out<T>, In<T>> || std::is_same_v<Out<T>, Csr<T>>)
Out<T> merge_add_k(const std::vector<const In<T>*>& runs, const Add& add,
                   util::ThreadPool* pool = nullptr) {
  I2A_EXPECTS(std::all_of(runs.begin(), runs.end(),
                          [](const In<T>* m) { return m->is_canonical(); }),
              "merge_add_k: input run not canonical");
  if (runs.empty()) {
    throw std::invalid_argument("merge_add_k: no input runs");
  }
  const index_t nrows = runs[0]->nrows();
  const index_t ncols = runs[0]->ncols();
  for (const In<T>* m : runs) {
    if (m->nrows() != nrows || m->ncols() != ncols) {
      throw std::invalid_argument("merge_add_k: run shape mismatch");
    }
  }
  if (runs.size() == 1) {  // fold of one
    if constexpr (std::is_same_v<Out<T>, In<T>>) {
      return *runs[0];
    } else {
      return runs[0]->to_csr();
    }
  }
  constexpr bool kListed = std::is_same_v<In<T>, Dcsr<T>>;

  // Injection site: the count pass's scratch/frontier allocations. A
  // fire here leaves every input run untouched — the merge has produced
  // nothing yet (DESIGN.md §10).
  I2A_FAILPOINT("merge.count.scratch");
  // The slots the passes visit: the union row list of hypersparse
  // inputs, else every row (slot s is row s).
  std::vector<index_t> rows;
  if constexpr (kListed) rows = detail::union_row_ids(runs);
  const index_t nslots = kListed ? static_cast<index_t>(rows.size()) : nrows;
  const auto row_of = [&](index_t slot) {
    return kListed ? rows[static_cast<std::size_t>(slot)] : slot;
  };
  const bool parallel = pool != nullptr && pool->size() > 1 && nslots > 0;
  const index_t nchunks =
      parallel ? pool->num_chunks(nslots) : (nslots > 0 ? 1 : 0);
  std::vector<detail::MergeScratch<T, typename In<T>::col_type>> scratch(
      static_cast<std::size_t>(nchunks));

  // Pass 1 (count): per-slot merged sizes, written into off[slot + 1]
  // (slots are disjoint across chunks, so no histograms are needed —
  // unlike the COO scatter, a row merge has exactly one producer). Sizes
  // depend only on the column patterns, so the count never reads a
  // value and ⊕ runs exactly once per merged entry, in the scatter.
  std::vector<index_t> off(static_cast<std::size_t>(nslots) + 1, 0);
  detail::run_chunked(
      pool, parallel, nslots, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        detail::seek_rows(runs, row_of(lo), s);
        for (index_t slot = lo; slot < hi; ++slot) {
          if (!detail::load_row(runs, row_of(slot), s)) continue;
          index_t cnt = 0;
          detail::merge_row_k(s, add, false,
                              [&cnt](index_t, const T&) { ++cnt; });
          off[static_cast<std::size_t>(slot) + 1] = cnt;
        }
      });

  // Stitch: one serial prefix sum sizes the output exactly.
  for (index_t slot = 0; slot < nslots; ++slot) {
    off[static_cast<std::size_t>(slot) + 1] +=
        off[static_cast<std::size_t>(slot)];
  }
  // Injection site: the scatter pass's output allocation — the largest
  // single allocation a compaction makes, so the canonical place an
  // out-of-memory failure lands mid-merge. A fire discards only the
  // partially built output; the input runs stay live and pinned.
  I2A_FAILPOINT("merge.scatter.alloc");
  using OutCol = typename Out<T>::col_type;
  std::vector<OutCol> cols(static_cast<std::size_t>(off.back()));
  std::vector<T> vals(static_cast<std::size_t>(off.back()));

  // Pass 2 (scatter + fold): same chunk decomposition, same scratch,
  // entries written straight into their final slots.
  detail::run_chunked(
      pool, parallel, nslots, [&](index_t chunk, index_t lo, index_t hi) {
        auto& s = scratch[static_cast<std::size_t>(chunk)];
        detail::seek_rows(runs, row_of(lo), s);
        for (index_t slot = lo; slot < hi; ++slot) {
          if (!detail::load_row(runs, row_of(slot), s)) continue;
          auto w = static_cast<std::size_t>(
              off[static_cast<std::size_t>(slot)]);
          detail::merge_row_k(s, add, true, [&](index_t c, const T& v) {
            cols[w] = static_cast<OutCol>(c);
            vals[w] = v;
            ++w;
          });
          I2A_ASSERT(w == static_cast<std::size_t>(
                              off[static_cast<std::size_t>(slot) + 1]),
                     "merge_add_k: scatter count disagrees with count pass");
        }
      });

  if constexpr (std::is_same_v<Out<T>, Dcsr<T>>) {
    // Every union row holds an entry of some input, and every entry
    // survives, so every slot is a stored row.
    Dcsr<T> out(nrows, ncols, std::move(rows), std::move(off),
                std::move(cols), std::move(vals));
    I2A_ENSURES(out.is_canonical(), "merge_add_k: non-canonical merge");
    return out;
  } else {
    std::vector<index_t> row_ptr;
    if constexpr (kListed) {
      // Spread the listed slots' offsets over every row.
      row_ptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
      std::size_t k = 0;
      for (index_t r = 0; r <= nrows; ++r) {
        while (k < rows.size() && rows[k] < r) ++k;
        row_ptr[static_cast<std::size_t>(r)] = off[k];
      }
    } else {
      row_ptr = std::move(off);
    }
    Csr<T> out(nrows, ncols, std::move(row_ptr), std::move(cols),
               std::move(vals));
    I2A_ENSURES(out.is_canonical(), "merge_add_k: non-canonical merge");
    return out;
  }
}

/// Operator-pair convenience: C = a ⊕ b with ⊕ = `p.add`, the same fold
/// Theorem II.1's construction applies to parallel edges (a folds first
/// — a is the *older* array when maintaining an adjacency). Only the ⊕
/// contract is required — a merge never touches ⊗ — so the constraint is
/// `CommutativeMonoidAdd`, not the full `Semiring`.
template <typename P>
  requires algebra::CommutativeMonoidAdd<P>
Csr<typename P::value_type> merge(
    const P& p, const Csr<typename P::value_type>& a,
    const Csr<typename P::value_type>& b, util::ThreadPool* pool = nullptr) {
  using T = typename P::value_type;
  return merge_add_k(
      std::vector<const Csr<T>*>{&a, &b},
      [&p](const T& x, const T& y) { return p.add(x, y); }, pool);
}

}  // namespace i2a::sparse
