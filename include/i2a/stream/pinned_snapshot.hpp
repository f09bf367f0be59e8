#pragma once
/// \file stream/pinned_snapshot.hpp
/// \brief Epoch-pinned, immutable view of a streaming builder's run-set:
///        the reader half of the concurrent serving core.
///
/// A `PinnedSnapshot` is what `ShardedBuilder::snapshot()` hands a
/// query thread: the refcounted immutable hypersparse runs that were
/// live at pin time, one group per row shard (oldest first within a
/// group), plus the batch count they cover — its *epoch*. Pinning is
/// O(live runs) shared_ptr copies under a lock held for pointer copies
/// only; after that the reader touches no builder state and takes no
/// locks ever again. The writer keeps appending and compacting; runs it
/// retires stay alive exactly until the last snapshot pinning them is
/// destroyed (the shared_ptr refcount IS the epoch drain — RCU-style
/// reclamation with no grace-period machinery).
///
/// Two read paths:
///
///   * `materialize()` — one k-way ⊕-merge (sparse/merge.hpp) of every
///     pinned run into a standalone dense CSR, byte-identical to what a
///     serial rebuild over the covered batch prefix would produce. Right
///     for algorithms that sweep all rows repeatedly (PageRank,
///     triangles).
///   * `fold_row()` — merge one row on the fly with the same
///     cursor-frontier fold the materializing merge uses, emitting
///     (column, ⊕-folded value) in strictly increasing column order. Row
///     r lives only in shard `shard_index(r, N)`'s runs, so the fold
///     visits that group alone: a binary search per run, O(L log rows)
///     for L runs per shard, whatever N is. Right for traversal
///     algorithms that touch a sparse subset of rows (BFS) — no O(nnz)
///     copy, no lock, no writer interaction.
///
/// Both paths fold equal columns in run order = batch-age order, so a
/// snapshot is semantically exactly the adjacency array of the batch
/// prefix it pins (Theorem II.1 applied to the concatenation of those
/// batches; the ⊕-regrouping across runs is sound because ⊕ is
/// associative — the `Semiring` contract the builder already requires).

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/merge.hpp"
#include "stream/shard.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

template <typename P>
  requires algebra::Semiring<P>
class PinnedSnapshot {
 public:
  using value_type = typename P::value_type;
  using RunPtr = std::shared_ptr<const sparse::Dcsr<value_type>>;
  /// Reusable cursor scratch for `fold_row` — allocate once per reader,
  /// pass to every row fold (the BFS port does exactly this).
  using RowScratch = sparse::detail::MergeScratch<value_type>;

  /// Pins `shards[s]`, shard s's runs (oldest first; all shape n × n,
  /// holding only rows r with `shard_index(r, shards.size()) == s`).
  /// Built by `ShardedBuilder::snapshot()`. `pending_error` is the
  /// builder's oldest undelivered background-compaction failure at pin
  /// time, if any (see `pending_error()`).
  PinnedSnapshot(index_t num_vertices, P p, std::uint64_t batches,
                 std::vector<std::vector<RunPtr>> shards,
                 std::exception_ptr pending_error = nullptr)
      : n_(num_vertices), p_(std::move(p)), batches_(batches),
        shards_(std::move(shards)),
        pending_error_(std::move(pending_error)) {
    for (const auto& group : shards_) num_runs_ += group.size();
  }

  index_t num_vertices() const { return n_; }
  /// The epoch: how many ingested batches (empty ones included) this
  /// snapshot covers — its contents are exactly the ⊕-fold of batches
  /// [0, batches()).
  std::uint64_t batches() const { return batches_; }
  /// Pinned runs summed over every shard.
  std::size_t num_runs() const { return num_runs_; }
  bool empty() const { return num_runs_ == 0; }
  const P& pair() const { return p_; }

  /// Observability for degraded snapshots: the oldest background-merge
  /// failure the builder had not yet delivered when this snapshot was
  /// pinned, or nullptr. A *peek*, not a consume — the writer still
  /// receives the failure exactly once through `drain()`/`ingest()`; the
  /// snapshot itself is always valid and readable (its runs cover the
  /// full ingested prefix; only compaction — freshness of the run
  /// *layout*, not of the data — is behind). Readers that care can
  /// `std::rethrow_exception` it or merely flag degraded service.
  const std::exception_ptr& pending_error() const { return pending_error_; }

  RowScratch row_scratch() const { return RowScratch{}; }

  /// Merge row `r` across the owning shard's pinned runs and call
  /// `emit(col, value)` once per stored column, strictly increasing,
  /// values ⊕-folded in batch-age order. Lock-free; safe from any number
  /// of threads as long as each uses its own `scratch`. Throws
  /// `std::out_of_range` for a row outside [0, n), as `ingest` does for
  /// an endpoint.
  template <typename Emit>
  void fold_row(index_t r, RowScratch& scratch, const Emit& emit) const {
    if (r < 0 || r >= n_) {
      throw std::out_of_range("i2a::stream: fold_row: row out of range");
    }
    if (num_runs_ == 0) return;
    const auto& group = shards_[shard_index(r, shards_.size())];
    scratch.reset(group.size());
    for (const RunPtr& handle : group) {
      const sparse::Dcsr<value_type>& run = *handle;
      const index_t k = run.find_row(r);
      if (k >= 0) scratch.push(run.stored_cols(k), run.stored_vals(k));
    }
    sparse::detail::merge_row_k(
        scratch,
        [this](const value_type& x, const value_type& y) {
          return p_.add(x, y);
        },
        true, emit);
  }

  /// One k-way ⊕-merge of every pinned run into a standalone dense CSR —
  /// byte-identical to a serial rebuild over the covered batch prefix
  /// (pool-size invariant, pinned by test_serve / test_stream).
  sparse::Csr<value_type> materialize(util::ThreadPool* pool = nullptr) const {
    if (num_runs_ == 0) {
      return sparse::Csr<value_type>(
          n_, n_, std::vector<index_t>(static_cast<std::size_t>(n_) + 1, 0),
          {}, {});
    }
    std::vector<const sparse::Dcsr<value_type>*> runs;
    runs.reserve(num_runs_);
    for (const auto& group : shards_) {
      for (const RunPtr& r : group) runs.push_back(r.get());
    }
    return sparse::merge_add_k<sparse::Dcsr, sparse::Csr>(
        runs,
        [this](const value_type& x, const value_type& y) {
          return p_.add(x, y);
        },
        pool);
  }

 private:
  index_t n_;
  P p_;
  std::uint64_t batches_;
  /// The pins, one group per shard: each handle keeps its run alive past
  /// any writer-side retirement until this snapshot drops.
  std::vector<std::vector<RunPtr>> shards_;
  std::size_t num_runs_ = 0;
  std::exception_ptr pending_error_;  ///< peeked builder failure, if any
};

}  // namespace i2a::stream
