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
/// partitions the fold by row. Each shard is a ladder of immutable runs
/// (stream/shard.hpp) over the full n × n shape (rows it does not own
/// stay empty), so the fused snapshot is the concatenation of every
/// shard's pinned runs: per row, all contributing runs come from the one
/// owning shard in batch-age order, byte-identical to a full rebuild
/// (test_sharded_differential). One shard is the unsharded builder —
/// `AdjacencyBuilder` — and its batches pass through unrouted, uncopied.
///
/// The shard hash is a splitmix64-style finalizer over the vertex id,
/// not `src % N`: generator ids are dense and real-world id schemes
/// stripe, so a plain modulus can systematically starve shards
/// (DESIGN.md §9).
///
/// **Threads.** Single writer, any number of readers. `ingest` calls
/// are externally serialized; `snapshot`, `adjacency`, `stats`,
/// `num_levels`, `drain` and `dismiss_pending_errors` are safe from any
/// thread concurrently with the writer and background work (test_serve,
/// under TSan). One coordination mutex makes (commit to every shard)
/// and (pin every shard) atomic with respect to each other, so a
/// snapshot always covers the same batch prefix on every shard. It
/// covers noexcept splices only: staging and inline merges run before
/// it is taken, background merges are scheduled after it is released.
///
/// **Failures (DESIGN.md §10).** `ingest` gives the strong guarantee:
/// validation, a pending deferred error, staging, inline merges and the
/// WAL append all happen before the first shard commits, and commits
/// cannot fail — either every shard advances or none does. Background
/// merge and checkpoint failures are queued and delivered exactly once,
/// by `drain()` or the next `ingest()` (before it consumes its batch);
/// `snapshot()` only peeks the oldest into `pending_error()`.
///
/// **Durability (DESIGN.md §12).** With `Options::wal_dir` set, each
/// acknowledged batch is one WAL frame, logged once and un-routed (the
/// hash re-routes it identically on replay), between the prepare and
/// commit phases. Checkpoints of every shard's run list at one epoch go
/// to the pool every `checkpoint_every` batches. `recover()` loads the
/// newest valid checkpoint, replays the WAL suffix through `ingest`, and
/// attaches a fresh segment.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "stream/checkpoint.hpp"
#include "stream/pinned_snapshot.hpp"
#include "stream/shard.hpp"
#include "stream/wal.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

/// Maintains A over a batched edge stream for one operator pair, split
/// over `num_shards` row shards. The ladder regroups the ⊕-fold across
/// batches and each delta is a full ⊕.⊗ product, so the pair must
/// declare the complete `Semiring` contract.
template <typename P>
  requires algebra::Semiring<P>
class ShardedBuilder {
  using Shard = detail::Shard<P>;

 public:
  using value_type = typename P::value_type;
  using Stats = BuilderStats;

  /// A non-empty `opts.wal_dir` attaches a fresh WAL (segment 0, epoch
  /// 0); the directory must not already hold durable state (use
  /// `recover()`).
  ShardedBuilder(index_t num_vertices, std::size_t num_shards, P p = P{},
                 const Options& opts = {})
      : n_(num_vertices), p_(std::move(p)), pool_(opts.pool),
        manifest_{algebra_tag<P>(), static_cast<std::uint64_t>(num_vertices),
                  static_cast<std::uint32_t>(num_shards),
                  static_cast<std::uint32_t>(opts.weighting)},
        coord_(std::make_unique<Coord>()) {
    if (num_vertices < 0) {
      throw std::invalid_argument("i2a::stream: negative vertex count");
    }
    if (num_shards == 0) throw std::invalid_argument("i2a::stream: 0 shards");
    shards_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      shards_.emplace_back(num_vertices, p_, opts);
    }
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
      for (std::size_t s = 0; s < b.shards_.size(); ++s) {
        b.shards_[s].restore_runs(std::move(ckpt->shards[s]), ckpt->edges[s]);
      }
      util::MutexLock lock(b.coord_->mu);
      b.coord_->epoch = start;
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

  index_t num_vertices() const { return n_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// Which shard owns source vertex `src` (and adjacency row `src`).
  std::size_t shard_of(index_t src) const {
    return shard_index(src, shards_.size());
  }

  /// Ingest one batch: deliver a pending background failure, validate,
  /// route, stage and *prepare* every shard (no lock), log the batch,
  /// *commit* every shard under the coordination mutex, then schedule
  /// background merges, a checkpoint and backpressure. Every shard
  /// commits every batch — one the batch sends no edges to commits an
  /// empty delta — so shard epochs stay in lockstep.
  ///
  /// Strong guarantee: if this throws, the batch was not consumed and
  /// the builder (runs, stats, epoch, log) is unchanged. Under
  /// `Durability::kFsyncEachBatch` a normal return means the batch is on
  /// stable storage.
  void ingest(std::span<const graph::Edge> batch) I2A_EXCLUDES(coord_->mu) {
    rethrow_pending_error();
    for (const graph::Edge& e : batch) {
      if (e.src < 0 || e.src >= n_ || e.dst < 0 || e.dst >= n_) {
        throw std::out_of_range("i2a::stream: ingest: edge endpoint "
                                "out of range");
      }
    }
    const std::size_t k = shards_.size();
    std::vector<std::vector<graph::Edge>> routed;
    if (k > 1) {
      routed.resize(k);
      for (const graph::Edge& e : batch) {
        routed[shard_index(e.src, k)].push_back(e);
      }
    }
    std::vector<typename Shard::Prepared> preps;
    preps.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      const std::span<const graph::Edge> part =
          k == 1 ? batch : std::span<const graph::Edge>(routed[s]);
      preps.push_back(
          shards_[s].prepare_publish(shards_[s].stage(part), part.size()));
    }
    const std::uint64_t epoch = this->epoch() + 1;
    // The last fallible step; its rollback on failure extends the strong
    // guarantee across the log and the ladders together.
    if (wal_) wal_->append(epoch, batch);
    {
      util::MutexLock lock(coord_->mu);
      for (std::size_t s = 0; s < k; ++s) {
        shards_[s].commit_publish(std::move(preps[s]));
      }
      coord_->epoch = epoch;
    }
    for (Shard& shard : shards_) shard.schedule_compaction();
    maybe_checkpoint(epoch);
    for (Shard& shard : shards_) shard.backpressure();
  }

  /// Edge-list convenience overload.
  void ingest(const std::vector<graph::Edge>& batch) {
    ingest(std::span<const graph::Edge>(batch.data(), batch.size()));
  }

  /// Pin every shard's run list (shard order, oldest first within a
  /// shard) under the coordination mutex — O(live runs) shared_ptr
  /// copies — into one `PinnedSnapshot` the reader traverses with no
  /// further synchronization. Never throws past allocation: a queued
  /// background failure is peeked into `pending_error()`, not consumed.
  PinnedSnapshot<P> snapshot() const I2A_EXCLUDES(coord_->mu) {
    std::vector<typename Shard::RunPtr> runs;
    std::exception_ptr pending;
    std::uint64_t epoch = 0;
    {
      util::MutexLock lock(coord_->mu);
      for (const Shard& shard : shards_) {
        std::exception_ptr err = shard.pin(runs);
        if (!pending) pending = std::move(err);
      }
      epoch = coord_->epoch;
    }
    return PinnedSnapshot<P>(n_, p_, epoch, std::move(runs),
                             std::move(pending));
  }

  /// The maintained adjacency array: one k-way ⊕-merge of the pinned
  /// runs, byte-identical to `build_adjacency` / `adjacency_array` over
  /// the concatenation of every ingested batch.
  sparse::Csr<value_type> adjacency() const {
    return snapshot().materialize(pool_);
  }

  /// `batches` is the epoch; every other counter sums across shards;
  /// `failpoints_hit` is the process-wide fire count.
  Stats stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      const Stats s = shard.stats();
      total.edges += s.edges;
      total.compactions += s.compactions;
      total.delta_entries += s.delta_entries;
      total.merged_entries += s.merged_entries;
      total.pending_merges += s.pending_merges;
      total.backpressure_events += s.backpressure_events;
      total.checkpoints += s.checkpoints;
    }
    total.batches = epoch();
    total.failpoints_hit = util::failpoints_fired_total();
    return total;
  }

  /// Live runs summed across shards. Each shard holds ≤ log₂(batches) + 1
  /// whenever it is settled — after every inline-mode `ingest`, and after
  /// `drain()` in background mode.
  index_t num_levels() const {
    std::size_t runs = 0;
    for (const Shard& shard : shards_) runs += shard.num_runs();
    return static_cast<index_t>(runs);
  }

  /// Block until no background compaction or checkpoint is in flight on
  /// any shard, then rethrow the oldest undelivered background failure
  /// of the first shard holding one. Each queued failure is delivered
  /// exactly once across `drain()` and `ingest()`.
  void drain() const {
    for (const Shard& shard : shards_) shard.settle();
    rethrow_pending_error();
  }

  /// Settle, then discard every queued background failure without
  /// rethrowing; returns how many. The explicit alternative to `drain()`
  /// the destructor's contract names: a builder destroyed holding an
  /// undelivered failure is an asserted error in checked builds.
  std::size_t dismiss_pending_errors() noexcept {
    std::size_t n = 0;
    for (Shard& shard : shards_) n += shard.dismiss_pending_errors();
    return n;
  }

 private:
  /// The coordination state. Heap-held so the builder stays movable;
  /// `mu` is always taken before any shard's ladder lock (DESIGN.md §11).
  struct Coord {
    mutable util::Mutex mu;
    std::uint64_t epoch I2A_GUARDED_BY(mu) = 0;  ///< committed batches
  };

  std::uint64_t epoch() const I2A_EXCLUDES(coord_->mu) {
    util::MutexLock lock(coord_->mu);
    return coord_->epoch;
  }

  void rethrow_pending_error() const {
    for (const Shard& shard : shards_) {
      if (std::exception_ptr err = shard.pop_error()) {
        std::rethrow_exception(err);
      }
    }
  }

  void attach_wal(const Options& opts, std::uint64_t seqno) {
    wal_.emplace(opts.wal_dir, manifest_, opts.durability,
                 opts.wal_segment_bytes, seqno, epoch());
    checkpoint_every_ = opts.checkpoint_every;
  }

  /// At a checkpoint boundary: copy every shard's run list (the writer
  /// just committed `epoch`, and only the writer commits, so all shards
  /// are at it) and hand the write to shard 0's checkpoint token. One
  /// checkpoint at a time; a boundary that finds one in flight is
  /// skipped. The task captures values only — it may outlive the
  /// builder, and it never touches the live `Wal`.
  void maybe_checkpoint(std::uint64_t epoch) {
    if (!wal_ || checkpoint_every_ == 0 || epoch % checkpoint_every_ != 0) {
      return;
    }
    std::vector<std::vector<typename Shard::Run>> runs;
    std::vector<std::uint64_t> edges(shards_.size(), 0);
    runs.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      runs.push_back(shards_[s].runs(edges[s]));
    }
    std::function<void()> write =
        [dir = wal_->dir(), manifest = manifest_, epoch,
         runs = std::move(runs), edges = std::move(edges),
         active_seqno = wal_->seqno()] {
          write_checkpoint<value_type>(dir, manifest, epoch, runs, edges);
          gc_checkpoints(dir, epoch);
          Wal::retire_segments(dir, epoch, active_seqno);
        };
    if (shards_.front().try_claim_checkpoint()) {
      shards_.front().run_checkpoint(std::move(write));
    }
  }

  static std::size_t shard_index(index_t src, std::size_t shards) {
    auto x = static_cast<std::uint64_t>(src);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % static_cast<std::uint64_t>(shards));
  }

  index_t n_;
  P p_;
  util::ThreadPool* pool_;
  WalManifest manifest_;
  std::vector<Shard> shards_;
  std::unique_ptr<Coord> coord_;
  // Durability (inert unless wal_ is engaged; writer-thread-only).
  std::uint64_t checkpoint_every_ = 0;
  std::optional<Wal> wal_;
};

}  // namespace i2a::stream
