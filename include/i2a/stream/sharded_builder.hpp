#pragma once
/// \file stream/sharded_builder.hpp
/// \brief The streaming builder's one front-end: ingest edge batches,
///        keep A = Eᵀout ⊕.⊗ Ein current, and serve lock-free
///        epoch-pinned snapshots while the writer appends and compacts —
///        over N row shards, durably if asked.
///
/// **Sharding.** Partitioning by *source vertex* is exact, not an
/// approximation: adjacency row i is the ⊕-fold of precisely the edges
/// with src = i, so routing each edge to the shard that owns its source
/// (`shard_index`, a splitmix64-style hash in stream/shard.hpp) partitions
/// the fold by row. Each shard is a ladder of immutable hypersparse runs
/// (sparse/dcsr.hpp): n × n in shape, but storing only the rows their
/// batches named, so a run costs O(stored rows + nnz), not an n + 1 row
/// pointer. A snapshot pins one run group per shard; `fold_row(r)` reads
/// only the group of r's owner, and `materialize()` merges every group
/// into one dense CSR — per row, all contributing runs come from the one
/// owning shard in batch-age order, byte-identical to a full rebuild
/// (test_sharded_differential). At n = 65,536 with 4 shards (bench/e2e
/// `serve-sharded`) the live and pinned runs' row pointers take 1.4 MiB
/// instead of 20.0 MiB. One shard is the unsharded builder —
/// `AdjacencyBuilder` — and its batches pass through unrouted, uncopied.
///
/// **Threads.** Single writer, any number of readers. `ingest` calls
/// are externally serialized; `snapshot`, `adjacency`, `stats`,
/// `num_levels`, `drain` and `dismiss_pending_errors` are safe from any
/// thread concurrently with the writer and background work (test_serve,
/// under TSan). All of them share the one mutex of the builder's state
/// block (stream/shard.hpp), so (commit every shard) and (pin every
/// shard) are atomic with respect to each other and a snapshot always
/// covers the same batch prefix on every shard. The lock covers noexcept
/// splices, pins and counters only: staging and inline merges run before
/// it is taken, background merges are scheduled after it is released.
///
/// **Failures (DESIGN.md §10).** `ingest` gives the strong guarantee:
/// validation, a pending deferred error, staging, inline merges and the
/// WAL append all happen before the commit, and the commit cannot fail —
/// either every shard advances or none does. Background merge and
/// checkpoint failures of every shard go to one queue and are delivered
/// exactly once, oldest first, by `drain()` or the next `ingest()`
/// (before it consumes its batch); `snapshot()` only peeks the oldest
/// into `pending_error()`.
///
/// **Durability (DESIGN.md §12).** With `Options::wal_dir` set, each
/// acknowledged batch is one WAL frame, logged once and un-routed (the
/// hash re-routes it identically on replay), between the prepare and
/// commit phases. Checkpoints of every shard's run list at one epoch go
/// to the pool every `checkpoint_every` batches, in the dense on-disk run
/// layout. `recover()` loads the newest valid checkpoint, compresses its
/// runs, replays the WAL suffix through `ingest`, and attaches a fresh
/// segment.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/shard.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace i2a::stream {

/// Maintains A over a batched edge stream for one operator pair, split
/// over `num_shards` row shards. The ladder regroups the ⊕-fold across
/// batches and each delta is a full ⊕.⊗ product, so the pair must
/// declare the complete `Semiring` contract.
template <typename P>
  requires algebra::Semiring<P>
class ShardedBuilder {
  using State = detail::State<P>;

 public:
  using value_type = typename P::value_type;
  using Stats = BuilderStats;

  /// A non-empty `opts.wal_dir` attaches a fresh WAL (segment 0, epoch
  /// 0); the directory must not already hold durable state (use
  /// `recover()`). Throws `std::invalid_argument`, before touching
  /// `wal_dir`, for a negative vertex count or one above 2^32 (the runs'
  /// 32-bit column ids, sparse/dcsr.hpp).
  ShardedBuilder(index_t num_vertices, std::size_t num_shards, P p = P{},
                 const Options& opts = {})
      : st_(std::make_shared<State>(num_vertices, num_shards, std::move(p),
                                    opts)),
        manifest_{algebra_tag<P>(), static_cast<std::uint64_t>(num_vertices),
                  static_cast<std::uint32_t>(num_shards),
                  static_cast<std::uint32_t>(opts.weighting)} {
    if (num_vertices < 0) {
      throw std::invalid_argument("i2a::stream: negative vertex count");
    }
    if (num_vertices > sparse::Dcsr<value_type>::kMaxCols) {
      throw std::invalid_argument("i2a::stream: more than 2^32 vertices");
    }
    if (num_shards == 0) throw std::invalid_argument("i2a::stream: 0 shards");
    if (!opts.wal_dir.empty()) {
      util::ensure_dir(opts.wal_dir);
      require_no_durable_state(opts.wal_dir);
      attach_wal(opts, /*seqno=*/0);
    }
  }

  /// Rebuild a builder from the durable state in `opts.wal_dir`: load
  /// the newest fully-valid checkpoint (if any), replay the WAL suffix
  /// through `ingest` — repairing a torn tail in the last segment — and
  /// attach a fresh segment for new batches. Throws `RecoveryError` on
  /// mismatched durable state (algebra instantiation, vertex count,
  /// shard count or weighting), mid-log corruption or a broken epoch
  /// chain. Idempotent; an empty or absent directory yields a fresh
  /// builder. Cost counters other than `batches` and `edges` restart at
  /// zero for the checkpointed prefix.
  static ShardedBuilder recover(index_t num_vertices, std::size_t num_shards,
                                P p, const Options& opts) {
    if (opts.wal_dir.empty()) {
      throw std::invalid_argument("i2a::stream: recover: empty wal_dir");
    }
    Options in_memory = opts;
    in_memory.wal_dir.clear();  // the WAL attaches after the replay
    ShardedBuilder b(num_vertices, num_shards, std::move(p), in_memory);
    util::ensure_dir(opts.wal_dir);
    std::uint64_t start = 0;
    if (auto ckpt = load_newest_checkpoint<value_type>(opts.wal_dir,
                                                       b.manifest_)) {
      start = ckpt->epoch;
      // Each loaded run is dense; keep only its stored rows, releasing
      // the dense copy before the next run is compressed.
      std::vector<std::vector<typename State::Run>> runs(num_shards);
      for (std::size_t s = 0; s < num_shards; ++s) {
        for (auto& loaded : ckpt->shards[s]) {
          runs[s].push_back(
              {b.st_->share(State::RunMatrix::compress(*loaded.csr)),
               loaded.weight});
          loaded.csr.reset();
        }
      }
      util::MutexLock lock(b.st_->mu);
      for (std::size_t s = 0; s < num_shards; ++s) {
        b.st_->shards[s].runs = std::move(runs[s]);
        b.st_->shards[s].edges = ckpt->edges[s];
      }
      b.st_->epoch = start;
    }
    const WalReplayStats replayed = replay_wal(
        opts.wal_dir, b.manifest_, start,
        [&b](std::uint64_t, const std::vector<graph::Edge>& edges) {
          // Injection site: one evaluation per replayed batch, so the
          // sweep can kill recovery itself mid-replay.
          I2A_FAILPOINT("recover.replay");
          b.ingest(edges);
        });
    b.attach_wal(opts, replayed.any_segment ? replayed.last_seqno + 1 : 0);
    return b;
  }

  ShardedBuilder(const ShardedBuilder&) = delete;
  ShardedBuilder& operator=(const ShardedBuilder&) = delete;
  ShardedBuilder(ShardedBuilder&&) noexcept = default;

  /// Destruction settles first: in-flight background work completes
  /// (tasks share the state, and the pool outlives the builder), so no
  /// error can arrive after the check. A queued failure nobody delivered
  /// is an asserted contract violation in checked builds: the owner must
  /// `drain()` (deliver) or `dismiss_pending_errors()` (discard) first.
  ~ShardedBuilder() {
    if (!st_) return;  // moved-from
    util::MutexLock lock(st_->mu);
    st_->settle_locked();
    I2A_ASSERT(st_->errors.empty(),
               "builder destroyed with undelivered background errors; "
               "drain() or dismiss_pending_errors() first");
  }

  index_t num_vertices() const { return st_->n; }
  std::size_t num_shards() const { return st_->num_shards; }

  /// Which shard owns source vertex `src` (and adjacency row `src`).
  std::size_t shard_of(index_t src) const {
    return shard_index(src, st_->num_shards);
  }

  /// Ingest one batch: deliver a pending background failure, validate,
  /// route, stage and *prepare* every shard (no lock), log the batch,
  /// *commit* every shard in one critical section, then schedule
  /// background merges, a checkpoint and backpressure. Every shard
  /// commits every batch — one the batch sends no edges to commits an
  /// empty delta — so shard epochs stay in lockstep.
  ///
  /// Strong guarantee: if this throws, the batch was not consumed and
  /// the builder (runs, stats, epoch, log) is unchanged. Under
  /// `Durability::kFsyncEachBatch` a normal return means the batch is on
  /// stable storage.
  void ingest(std::span<const graph::Edge> batch) I2A_EXCLUDES(st_->mu) {
    rethrow_pending_error();
    const index_t n = st_->n;
    for (const graph::Edge& e : batch) {
      if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
        throw std::out_of_range("i2a::stream: ingest: edge endpoint "
                                "out of range");
      }
    }
    const std::size_t k = st_->num_shards;
    std::vector<std::vector<graph::Edge>> routed;
    if (k > 1) {
      routed.resize(k);
      for (const graph::Edge& e : batch) {
        routed[shard_index(e.src, k)].push_back(e);
      }
    }
    std::vector<typename State::Prepared> preps;
    preps.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      preps.push_back(st_->stage(
          k == 1 ? batch : std::span<const graph::Edge>(routed[s])));
    }
    st_->prepare_publish(preps);
    const std::uint64_t epoch = this->epoch() + 1;
    // The last fallible step; its rollback on failure extends the strong
    // guarantee across the log and the ladders together.
    if (wal_) wal_->append(epoch, batch);
    st_->commit_publish(preps, epoch);
    for (std::size_t s = 0; s < k; ++s) st_->schedule_compaction(s);
    maybe_checkpoint(epoch);
    for (std::size_t s = 0; s < k; ++s) st_->backpressure(s);
  }

  /// Edge-list convenience overload.
  void ingest(const std::vector<graph::Edge>& batch) {
    ingest(std::span<const graph::Edge>(batch.data(), batch.size()));
  }

  /// Pin every shard's run list (one group per shard, oldest first) in
  /// one critical section — O(live runs) shared_ptr copies — into one
  /// `PinnedSnapshot` the reader traverses with no further
  /// synchronization. Never throws past allocation: a queued background
  /// failure is peeked into `pending_error()`, not consumed.
  PinnedSnapshot<P> snapshot() const I2A_EXCLUDES(st_->mu) {
    std::vector<std::vector<typename State::RunPtr>> runs(st_->num_shards);
    std::exception_ptr pending;
    std::uint64_t epoch = 0;
    {
      util::MutexLock lock(st_->mu);
      for (std::size_t s = 0; s < st_->num_shards; ++s) {
        runs[s].reserve(st_->shards[s].runs.size());
        for (const auto& r : st_->shards[s].runs) runs[s].push_back(r.csr);
      }
      if (!st_->errors.empty()) pending = st_->errors.front();
      epoch = st_->epoch;
    }
    return PinnedSnapshot<P>(st_->n, st_->p, epoch, std::move(runs),
                             std::move(pending));
  }

  /// The maintained adjacency array: one k-way ⊕-merge of the pinned
  /// runs, byte-identical to `build_adjacency` / `adjacency_array` over
  /// the concatenation of every ingested batch.
  sparse::Csr<value_type> adjacency() const {
    return snapshot().materialize(st_->pool);
  }

  /// `batches` is the epoch; `edges` and `pending_merges` sum across
  /// shards; `failpoints_hit` is the process-wide fire count.
  Stats stats() const I2A_EXCLUDES(st_->mu) {
    Stats total;
    {
      util::MutexLock lock(st_->mu);
      total = st_->stats;
      for (std::size_t s = 0; s < st_->num_shards; ++s) {
        total.edges += st_->shards[s].edges;
        total.pending_merges += st_->pending_merges_locked(s);
      }
      total.batches = st_->epoch;
    }
    total.failpoints_hit = util::failpoints_fired_total();
    return total;
  }

  /// Live runs summed across shards. Each shard holds ≤ log₂(batches) + 1
  /// whenever it is settled — after every inline-mode `ingest`, and after
  /// `drain()` in background mode.
  index_t num_levels() const I2A_EXCLUDES(st_->mu) {
    util::MutexLock lock(st_->mu);
    std::size_t runs = 0;
    for (const auto& l : st_->shards) runs += l.runs.size();
    return static_cast<index_t>(runs);
  }

  /// Block until no background compaction or checkpoint is in flight,
  /// then rethrow the builder's oldest undelivered background failure.
  /// Each queued failure is delivered exactly once across `drain()` and
  /// `ingest()`.
  void drain() const { rethrow_pending_error(/*settle=*/true); }

  /// Settle, then discard every queued background failure without
  /// rethrowing; returns how many. The explicit alternative to `drain()`
  /// the destructor's contract names: a builder destroyed holding an
  /// undelivered failure is an asserted error in checked builds.
  std::size_t dismiss_pending_errors() noexcept I2A_EXCLUDES(st_->mu) {
    util::MutexLock lock(st_->mu);
    st_->settle_locked();
    const std::size_t dismissed = st_->errors.size();
    st_->errors.clear();
    return dismissed;
  }

 private:
  std::uint64_t epoch() const I2A_EXCLUDES(st_->mu) {
    util::MutexLock lock(st_->mu);
    return st_->epoch;
  }

  /// Pop and rethrow the oldest queued background failure, if any —
  /// after waiting out in-flight background work when `settle` is set.
  void rethrow_pending_error(bool settle = false) const
      I2A_EXCLUDES(st_->mu) {
    std::exception_ptr err;
    {
      util::MutexLock lock(st_->mu);
      if (settle) st_->settle_locked();
      if (!st_->errors.empty()) {
        err = st_->errors.front();
        st_->errors.erase(st_->errors.begin());
      }
    }
    if (err) std::rethrow_exception(err);
  }

  void attach_wal(const Options& opts, std::uint64_t seqno) {
    wal_.emplace(opts.wal_dir, manifest_, opts.durability,
                 opts.wal_segment_bytes, seqno, epoch());
    checkpoint_every_ = opts.checkpoint_every;
  }

  /// At a checkpoint boundary: unless a checkpoint is in flight (then
  /// the boundary is skipped), copy every shard's run list — the writer
  /// just committed `epoch`, and only the writer commits — and hand the
  /// write to the pool. The task captures values only: it may outlive
  /// the builder, and it never touches the live `Wal`.
  void maybe_checkpoint(std::uint64_t epoch) {
    if (!wal_ || checkpoint_every_ == 0 || epoch % checkpoint_every_ != 0) {
      return;
    }
    // Every copy that can throw happens before the token is taken; after
    // it there are only moves, so a taken token always reaches the task
    // that frees it.
    std::string dir = wal_->dir();
    WalManifest manifest = manifest_;
    std::vector<std::vector<typename State::Run>> runs;
    std::vector<std::uint64_t> edges;
    runs.reserve(st_->num_shards);
    edges.reserve(st_->num_shards);
    if (!st_->claim_checkpoint(runs, edges)) return;
    st_->run_checkpoint([dir = std::move(dir), manifest = std::move(manifest),
                         epoch, runs = std::move(runs),
                         edges = std::move(edges),
                         active_seqno = wal_->seqno()] {
      write_checkpoint<value_type>(dir, manifest, epoch, runs, edges);
      gc_checkpoints(dir, epoch);
      Wal::retire_segments(dir, epoch, active_seqno);
    });
  }

  std::shared_ptr<State> st_;
  WalManifest manifest_;
  // Durability (inert unless wal_ is engaged; writer-thread-only).
  std::uint64_t checkpoint_every_ = 0;
  std::optional<Wal> wal_;
};

}  // namespace i2a::stream
