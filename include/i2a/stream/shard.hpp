#pragma once
/// \file stream/shard.hpp
/// \brief The per-ladder core behind the streaming builders (internal;
///        the public surface is `ShardedBuilder` / `AdjacencyBuilder`):
///        one run-list ladder, its compaction policy and background
///        compaction tasks, backpressure, snapshot pins and the
///        deferred-error queue. A shard neither validates, routes nor
///        logs — stream/sharded_builder.hpp does that once for all of
///        them.
///
/// **Run-list ladder.** A shard keeps a list of immutable refcounted CSR
/// runs, oldest first, each the ⊕-fold of a consecutive interval of
/// batches. After a batch's delta (weight 1) is appended, the
/// *compaction policy* merges the maximal balanced suffix: the longest
/// tail in which every run's weight is ≤ the combined weight of the runs
/// after it. Settled weights are therefore super-increasing, which
/// bounds live runs by log₂(batches) + 1 and rewrites each stored entry
/// O(log batches) times (DESIGN.md §7, §9). Age order is preserved end
/// to end, so the ⊕-merge of the runs is byte-identical to a rebuild.
///
/// **Concurrency.** `Ladder::mu` guards every ladder field (checked at
/// compile time, DESIGN.md §11). A pin copies O(log batches) shared_ptrs
/// under it; staging takes no lock; a merge works on private run handles
/// and commits by pointer splice under it, so a reader never waits on a
/// merge. `Compaction::kInline` settles a private copy of the run list
/// inside the publish; `kBackground` hands the merge to the pool as a
/// detached task that owns the ladder by shared_ptr (it may outlive the
/// shard), splices when done and re-plans while a suffix qualifies.
///
/// **Failures (DESIGN.md §10).** Everything fallible runs in
/// `prepare_publish`; `commit_publish` is noexcept. A background merge or
/// checkpoint failure has no caller to throw at, so it is queued: popped
/// exactly once by the builder's `drain()` / `ingest()`, peeked by pins.
/// A failed task submit runs the merge inline instead (absorbed, counted
/// in `backpressure_events`).
///
/// **Backpressure.** In background mode `max_pending_merges` caps the
/// merges the policy still owes: over the cap, `backpressure()` waits out
/// the in-flight task and, if still over, settles the ladder on the
/// writer's thread.
///
/// Canonical-CSR postconditions (`I2A_ENSURES`) hold for every run the
/// ladder exposes — per-batch delta, inline merge or background merge.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "sparse/csr.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/checkpoint.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace i2a::stream {

/// How a batch's incidence arrays draw their entries — mirrors the two
/// batch-construction entry points (`incidence_arrays` /
/// `weighted_incidence_arrays`).
enum class Weighting {
  kUnweighted,  ///< every incidence entry is 1: A(i,j) folds edge counts
  kWeighted,    ///< Ein carries w(e), Eout carries ⊗-identity: A(i,j)
                ///< folds edge weights (min.+ SSSP-ready, etc.)
};

/// Where ladder compactions run (see the file comment).
enum class Compaction {
  kInline,      ///< merge synchronously inside ingest (PR 4 semantics)
  kBackground,  ///< schedule merges as detached ThreadPool tasks
};

/// `max_pending_merges` value meaning "no backpressure" (the default).
inline constexpr std::size_t kUnboundedPendingMerges =
    static_cast<std::size_t>(-1);

/// Construction options for `AdjacencyBuilder` / `ShardedBuilder`. The
/// first block configures every shard's ladder; the second the
/// durability subsystem (DESIGN.md §12) — inert while `wal_dir` is empty.
struct Options {
  Weighting weighting = Weighting::kUnweighted;
  /// Runs staging, inline merges, checkpoints and background tasks.
  /// Background compaction without a pool degrades to inline.
  util::ThreadPool* pool = nullptr;
  Compaction compaction = Compaction::kInline;
  /// Background mode: the compaction debt per shard before the writer
  /// stalls (see the file comment's backpressure section).
  std::size_t max_pending_merges = kUnboundedPendingMerges;

  /// Directory for WAL segments + checkpoints. Empty = in-memory only
  /// (no logging, no recovery). A fresh builder refuses a directory that
  /// already holds durable state — that data is recoverable, so
  /// constructing over it would be silent data loss; use `recover()`.
  std::string wal_dir;
  /// When an acknowledged batch is durable (see stream/wal.hpp).
  Durability durability = Durability::kFsyncEachBatch;
  /// WAL segment rotation threshold.
  std::uint64_t wal_segment_bytes = 64ULL << 20;
  /// Write a run-level checkpoint every this many batches via the pool
  /// (0 = never). Checkpoints bound replay time and let fully-covered
  /// WAL segments retire.
  std::uint64_t checkpoint_every = 0;
};

/// Maintenance-cost accounting, the bench counters (`Builder::Stats`).
struct BuilderStats {
  std::uint64_t batches = 0;          ///< ingested batches (incl. empty)
  std::uint64_t edges = 0;            ///< ingested edges
  std::uint64_t compactions = 0;      ///< ladder k-way merges run
  std::uint64_t delta_entries = 0;    ///< nnz across per-batch deltas
  std::uint64_t merged_entries = 0;   ///< nnz written by compactions
  std::uint64_t pending_merges = 0;   ///< merges the policy still owes
                                      ///< (computed at stats() time)
  std::uint64_t backpressure_events = 0;  ///< over-budget writer stalls
                                          ///< + submit-failure fallbacks
  std::uint64_t checkpoints = 0;      ///< durable checkpoints written
  std::uint64_t failpoints_hit = 0;   ///< process-wide failpoint fires
                                      ///< (always 0 in production
                                      ///< builds; see util/failpoint.hpp)
};

namespace detail {

template <typename P>
  requires algebra::Semiring<P>
class Shard {
 public:
  using value_type = typename P::value_type;
  using RunPtr = std::shared_ptr<const sparse::Csr<value_type>>;
  /// One immutable ladder run: the ⊕-fold of `weight` consecutive
  /// non-empty batches — exactly the unit a checkpoint stores.
  using Run = CheckpointRun<value_type>;

  /// The staged-but-uncommitted half of a publish. `prepare_publish` does
  /// everything that can throw; `commit_publish` consumes the result with
  /// no fallible step, which is what lets the builder prepare every shard
  /// first and then commit them all without risking a torn epoch.
  struct Prepared {
    bool inline_mode = false;
    std::vector<Run> runs;  ///< inline mode: the fully settled new list
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    RunPtr delta;  ///< background mode: appended (capacity reserved)
    std::uint64_t delta_nnz = 0;
    std::size_t batch_edges = 0;
  };

  Shard(index_t num_vertices, const P& p, const Options& opts)
      : n_(num_vertices), p_(p), weighting_(opts.weighting),
        pool_(opts.pool),
        compaction_(opts.pool != nullptr ? opts.compaction
                                         : Compaction::kInline),
        max_pending_merges_(opts.max_pending_merges),
        ladder_(std::make_shared<Ladder>()) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  Shard(Shard&&) noexcept = default;

  /// Destruction settles first: in-flight background work completes
  /// (tasks share the ladder, and the pool outlives the builder), so no
  /// error can arrive after the check. A queued failure nobody delivered
  /// is an asserted contract violation in checked builds: the owner must
  /// `drain()` (deliver) or `dismiss_pending_errors()` (discard) first.
  ~Shard() {
    if (!ladder_) return;  // moved-from
    util::MutexLock lock(ladder_->mu);
    settle_locked();
    I2A_ASSERT(ladder_->errors.empty(),
               "builder destroyed with undelivered background errors; "
               "drain() or dismiss_pending_errors() first");
  }

  /// Settle, then discard every queued failure; returns how many.
  std::size_t dismiss_pending_errors() noexcept I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    settle_locked();
    const std::size_t n = ladder_->errors.size();
    ladder_->errors.clear();
    return n;
  }

  /// Block until no background compaction or checkpoint is in flight.
  void settle() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    settle_locked();
  }

  /// Consume the oldest queued background failure (nullptr if none).
  std::exception_ptr pop_error() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    if (ladder_->errors.empty()) return nullptr;
    std::exception_ptr err = ladder_->errors.front();
    ladder_->errors.erase(ladder_->errors.begin());
    return err;
  }

  /// Append the live run handles (oldest first) to `out`; returns the
  /// oldest queued failure, peeked, not consumed.
  std::exception_ptr pin(std::vector<RunPtr>& out) const
      I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    out.reserve(out.size() + ladder_->runs.size());
    for (const Run& r : ladder_->runs) out.push_back(r.csr);
    return ladder_->errors.empty() ? nullptr : ladder_->errors.front();
  }

  std::size_t num_runs() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    return ladder_->runs.size();
  }

  /// Cost counters, with the pending-merge debt computed now.
  BuilderStats stats() const I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    BuilderStats s = ladder_->stats;
    s.pending_merges = static_cast<std::uint64_t>(pending_merges_locked());
    return s;
  }

  /// The run list and the edge counter as one consistent copy — what a
  /// checkpoint of this shard serializes.
  std::vector<Run> runs(std::uint64_t& edges) const
      I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    edges = ladder_->stats.edges;
    return ladder_->runs;
  }

  /// Install a checkpoint's run list into an untouched ladder.
  void restore_runs(std::vector<Run>&& runs, std::uint64_t edges)
      I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    I2A_EXPECTS(ladder_->runs.empty() && ladder_->stats.edges == 0,
                "restore_runs: ladder already has state");
    ladder_->runs = std::move(runs);
    ladder_->stats.edges = edges;
  }

  /// Build a batch's delta adjacency with the sort-free incidence +
  /// SpGEMM path. Touches no ladder state, so it runs lock-free. Returns
  /// nullptr for an empty batch (the ⊕-identity contribution).
  RunPtr stage(std::span<const graph::Edge> batch) const {
    if (batch.empty()) return nullptr;
    // Injection site: the whole staging pipeline for a non-empty batch.
    // A fire here (or in the incidence/SpGEMM sites downstream) leaves
    // the ladder untouched — ingest's strong guarantee.
    I2A_FAILPOINT("builder.stage.batch");
    graph::Graph g(n_);
    g.edges().assign(batch.begin(), batch.end());
    const auto inc = weighting_ == Weighting::kWeighted
                         ? graph::weighted_incidence_arrays(g, p_, pool_)
                         : graph::incidence_arrays(g, p_, pool_);
    auto delta = graph::adjacency_array(p_, inc, sparse::SpGemmAlgo::kAuto,
                                        pool_);
    I2A_ENSURES(delta.is_canonical(), "stream: staged delta not canonical");
    return std::make_shared<const sparse::Csr<value_type>>(std::move(delta));
  }

  /// Phase 1 of a publish: everything fallible. Inline mode settles the
  /// whole ladder on a private copy of the run list (concurrent readers
  /// keep pinning the old list; a throwing ⊕ leaves runs and stats
  /// untouched). Background mode only reserves what `commit_publish`
  /// will need, so the commit's push_back cannot throw.
  Prepared prepare_publish(RunPtr delta, std::size_t batch_edges)
      I2A_EXCLUDES(ladder_->mu) {
    Prepared prep;
    prep.batch_edges = batch_edges;
    prep.delta_nnz = static_cast<std::uint64_t>(delta ? delta->nnz() : 0);
    if (compaction_ == Compaction::kInline) {
      prep.inline_mode = true;
      {
        util::MutexLock lock(ladder_->mu);
        prep.runs = ladder_->runs;
      }
      if (delta) prep.runs.push_back(Run{std::move(delta), 1});
      settle_runs(prep.runs, prep.compactions, prep.merged_entries);
    } else {
      prep.delta = std::move(delta);
      util::MutexLock lock(ladder_->mu);
      ladder_->runs.reserve(ladder_->runs.size() + 1);
      // One spare error slot, so a background task's failure report
      // cannot itself die on allocation in the common case.
      ladder_->errors.reserve(ladder_->errors.size() + 1);
    }
    return prep;
  }

  /// Phase 2 of a publish: a splice plus counter bumps under the ladder
  /// lock, with no fallible step (the lint rule `commit-noexcept` keeps
  /// this declaration). Scheduling the merge it makes due is a separate
  /// step, `schedule_compaction`.
  void commit_publish(Prepared&& prep) noexcept I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    if (prep.inline_mode) {
      ladder_->runs = std::move(prep.runs);
      ladder_->stats.compactions += prep.compactions;
      ladder_->stats.merged_entries += prep.merged_entries;
    } else if (prep.delta) {
      ladder_->runs.push_back(Run{std::move(prep.delta), 1});
    }
    ladder_->stats.edges += prep.batch_edges;
    ladder_->stats.delta_entries += prep.delta_nnz;
  }

  /// Background mode, after a commit: plan the due merge and hand it to
  /// the pool. The caller holds no builder lock — a workerless pool runs
  /// the task right here, and a reader must not wait on it. A failed
  /// plan parks the chain (the next publish replans); a failed submit
  /// runs the task inline (absorbed, counted in `backpressure_events`).
  /// Never throws: the batch is already committed.
  // NOLINTNEXTLINE(bugprone-exception-escape): every throw below is caught
  // at an absorb boundary documented in DESIGN.md §10.
  void schedule_compaction() noexcept I2A_EXCLUDES(ladder_->mu) {
    if (compaction_ != Compaction::kBackground) return;
    std::function<void()> task;
    {
      util::MutexLock lock(ladder_->mu);
      try {
        task = plan_task_locked(ladder_, pool_, p_);
      } catch (...) {
        // Planning allocates (group copy, std::function); the token was
        // never taken, so the chain parks until the next publish.
      }
    }
    if (!task) return;
    bool fallback = false;
    try {
      // Injection site: handing the compaction task to the pool. A fire
      // (or a real queue-allocation failure) must not lose the merge:
      // it runs inline below instead.
      I2A_FAILPOINT("builder.background.submit");
      auto backup = task;  // submit may consume its argument even on throw
      pool_->submit(std::move(backup));
    } catch (...) {
      fallback = true;
    }
    if (!fallback) return;
    {
      util::MutexLock lock(ladder_->mu);
      ++ladder_->stats.backpressure_events;
    }
    try {
      task();  // the task body queues its own failures
    } catch (...) {
      // Only reachable if the task's failure *reporting* failed on
      // allocation (prepare reserves a slot against exactly this).
    }
  }

  /// Post-publish backpressure (background mode with a bounded
  /// `max_pending_merges` only): over budget, the writer stalls — one
  /// `backpressure_events` tick — waits out the in-flight task, and if
  /// still over budget claims the compaction token and settles the
  /// ladder on this thread. A merge failure here is queued (the batch is
  /// already consumed); the old run list stays.
  void backpressure() I2A_EXCLUDES(ladder_->mu) {
    if (compaction_ != Compaction::kBackground) return;
    if (max_pending_merges_ == kUnboundedPendingMerges) return;
    util::MutexLock lock(ladder_->mu);
    if (pending_merges_locked() <= max_pending_merges_) return;
    ++ladder_->stats.backpressure_events;
    while (ladder_->compacting) ladder_->cv.wait(ladder_->mu);
    if (pending_merges_locked() <= max_pending_merges_) return;
    ladder_->compacting = true;
    std::vector<Run> runs = ladder_->runs;
    lock.unlock();
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
    // The settle runs unlocked on a private copy; its outcome is applied
    // under one relock, so no lock transition sits on an exceptional
    // edge (the thread-safety analysis does not model unwinding).
    std::exception_ptr failure;
    try {
      settle_runs(runs, compactions, merged_entries);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (!failure) {
      ladder_->runs = std::move(runs);
      ladder_->stats.compactions += compactions;
      ladder_->stats.merged_entries += merged_entries;
    } else {
      ladder_->errors.push_back(failure);
    }
    ladder_->compacting = false;
    lock.unlock();
    ladder_->cv.notify_all();
  }

  /// Claim the checkpoint token; false while a checkpoint is in flight.
  bool try_claim_checkpoint() noexcept I2A_EXCLUDES(ladder_->mu) {
    util::MutexLock lock(ladder_->mu);
    if (ladder_->checkpointing) return false;
    ladder_->checkpointing = true;
    return true;
  }

  /// Run `write` (a checkpoint) on the pool under the token
  /// `try_claim_checkpoint` handed out. The task releases the token,
  /// counts a success in `Stats::checkpoints` and queues a failure as a
  /// deferred error — the batch that crossed the boundary is already
  /// committed. It shares the ladder, so it may outlive the shard, and
  /// `settle()` waits for it. No pool, or a failed submit (absorbed,
  /// counted in `backpressure_events`), runs it inline.
  void run_checkpoint(std::function<void()> write) noexcept
      I2A_EXCLUDES(ladder_->mu) {
    auto task = [lad = ladder_, write = std::move(write)] {
      std::exception_ptr failure;
      try {
        write();
      } catch (...) {
        failure = std::current_exception();
      }
      {
        util::MutexLock lock(lad->mu);
        if (!failure) {
          ++lad->stats.checkpoints;
        } else {
          try {
            lad->errors.push_back(failure);
          } catch (...) {
            // Reporting failed on allocation. The token must still be
            // released, so the failure is dropped; the failed checkpoint
            // already removed its temp file, so no durable state is
            // inconsistent.
          }
        }
        lad->checkpointing = false;
      }
      lad->cv.notify_all();
    };
    bool fallback = pool_ == nullptr;
    if (!fallback) {
      try {
        auto backup = task;  // submit may consume its argument on throw
        pool_->submit(std::move(backup));
      } catch (...) {
        fallback = true;
        util::MutexLock lock(ladder_->mu);
        ++ladder_->stats.backpressure_events;
      }
    }
    if (fallback) task();
  }

 private:
  /// Shared ladder state. Refcounted so background tasks can outlive the
  /// shard object; `mu` guards every member.
  struct Ladder {
    mutable util::Mutex mu;
    util::CondVar cv;  ///< signaled when a compaction or checkpoint ends
    /// Run list, oldest first, consecutive intervals.
    std::vector<Run> runs I2A_GUARDED_BY(mu);
    BuilderStats stats I2A_GUARDED_BY(mu);
    /// True while a compaction holds the token.
    bool compacting I2A_GUARDED_BY(mu) = false;
    /// True while a checkpoint is in flight (the builder parks its one
    /// token on shard 0).
    bool checkpointing I2A_GUARDED_BY(mu) = false;
    /// Queued background failures, oldest first; each is delivered
    /// exactly once (pop) and may be peeked any number of times (pin).
    std::vector<std::exception_ptr> errors I2A_GUARDED_BY(mu);
  };

  void settle_locked() const I2A_REQUIRES(ladder_->mu) {
    while (ladder_->compacting || ladder_->checkpointing) {
      ladder_->cv.wait(ladder_->mu);
    }
  }

  /// How many merges the compaction policy still owes on the current
  /// run list — simulated on the weights alone (no data touched).
  std::size_t pending_merges_locked() const I2A_REQUIRES(ladder_->mu) {
    std::vector<std::uint64_t> w;
    w.reserve(ladder_->runs.size());
    for (const Run& r : ladder_->runs) w.push_back(r.weight);
    std::size_t merges = 0;
    for (auto [lo, hi] = plan_suffix(w); hi > lo;
         std::tie(lo, hi) = plan_suffix(w)) {
      std::uint64_t sum = 0;
      for (std::size_t i = lo; i < hi; ++i) sum += w[i];
      w.erase(w.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              w.begin() + static_cast<std::ptrdiff_t>(hi));
      w[lo] = sum;
      ++merges;
    }
    return merges;
  }

  /// Run the compaction policy to a fixed point on a private run list,
  /// accumulating stat deltas. Throws on merge failure (callers pick the
  /// delivery channel); the list is then mid-settle but private.
  void settle_runs(std::vector<Run>& runs, std::uint64_t& compactions,
                   std::uint64_t& merged_entries) const {
    for (auto [lo, hi] = plan_suffix(runs); hi > lo;
         std::tie(lo, hi) = plan_suffix(runs)) {
      Run merged = merge_group(runs, lo, hi, p_, pool_);
      // Injection site: between a finished merge and its splice — the
      // failure has paid the merge cost but must not corrupt the list.
      I2A_FAILPOINT("builder.ladder.splice");
      merged_entries += static_cast<std::uint64_t>(merged.csr->nnz());
      ++compactions;
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                 runs.begin() + static_cast<std::ptrdiff_t>(hi));
      runs[lo] = std::move(merged);
    }
  }

  static std::uint64_t weight_of(const Run& r) { return r.weight; }
  static std::uint64_t weight_of(std::uint64_t w) { return w; }

  /// The compaction policy: the maximal *balanced* suffix [lo, hi) of
  /// `runs` (a run list or a bare weight list), empty when nothing
  /// qualifies.
  template <typename RunsVec>
  static std::pair<std::size_t, std::size_t> plan_suffix(
      const RunsVec& runs) {
    if (runs.size() < 2) return {0, 0};
    std::size_t lo = runs.size() - 1;
    std::uint64_t tail = weight_of(runs[lo]);
    while (lo > 0 && weight_of(runs[lo - 1]) <= tail) {
      tail += weight_of(runs[lo - 1]);
      --lo;
    }
    if (runs.size() - lo < 2) return {0, 0};
    return {lo, runs.size()};
  }

  /// k-way ⊕-merge of runs[lo, hi), oldest first. Background tasks pass
  /// pool == nullptr: the merge is pool-size invariant, and a detached
  /// task must not fan back into the pool it occupies.
  static Run merge_group(const std::vector<Run>& runs, std::size_t lo,
                         std::size_t hi, const P& p,
                         util::ThreadPool* pool) {
    std::vector<const sparse::Csr<value_type>*> group;
    group.reserve(hi - lo);
    std::uint64_t weight = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      group.push_back(runs[i].csr.get());
      weight += runs[i].weight;
    }
    auto merged = sparse::merge_add_k(
        group,
        [&p](const value_type& x, const value_type& y) {
          return p.add(x, y);
        },
        pool);
    I2A_ENSURES(merged.is_canonical(),
                "stream: compaction produced non-canonical run");
    return Run{std::make_shared<const sparse::Csr<value_type>>(
                   std::move(merged)),
               weight};
  }

  /// Under the ladder lock: if no merge is in flight and a suffix
  /// qualifies, take the compaction token and return the task that
  /// performs the merge. The task owns the ladder, captures the group's
  /// run handles by value (indices stay valid: the writer only appends
  /// and only this task replaces), and re-plans on completion so carry
  /// chains keep compacting without the writer. All allocation happens
  /// before the token is taken, so a throw leaves the ladder unclaimed.
  static std::function<void()> plan_task_locked(std::shared_ptr<Ladder> lad,
                                                util::ThreadPool* pool, P p)
      I2A_REQUIRES(lad->mu) {
    if (lad->compacting) return nullptr;
    const auto [lo, hi] = plan_suffix(lad->runs);
    if (hi <= lo) return nullptr;
    std::vector<Run> group(lad->runs.begin() + static_cast<std::ptrdiff_t>(lo),
                           lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::function<void()> task =
        [lad, pool, p = std::move(p), group = std::move(group), lo,
         hi]() mutable {
      // The merge runs unlocked; its outcome is committed under one
      // locked scope so no lock operation sits on an exceptional edge.
      Run merged{};
      std::exception_ptr failure;
      try {
        merged = merge_group(group, 0, group.size(), p, nullptr);
        // Injection site: the background twin of the inline splice site.
        I2A_FAILPOINT("builder.ladder.splice");
      } catch (...) {
        failure = std::current_exception();
      }
      std::function<void()> next;
      {
        util::MutexLock lock(lad->mu);
        if (!failure) {
          lad->runs.erase(
              lad->runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
              lad->runs.begin() + static_cast<std::ptrdiff_t>(hi));
          lad->runs[lo] = std::move(merged);
          ++lad->stats.compactions;
          lad->stats.merged_entries +=
              static_cast<std::uint64_t>(lad->runs[lo].csr->nnz());
          lad->compacting = false;
          try {
            next = plan_task_locked(lad, pool, p);
          } catch (...) {
            // Replanning failed to allocate: the chain parks (token
            // free) and the next publish replans. No work is lost.
          }
        } else {
          // The chain parks; the failure is delivered exactly once. This
          // push_back is the one spot where reporting can itself fail on
          // allocation (prepare reserves a spare slot); an escape lands
          // in the pool's submit-error slot, never std::terminate.
          lad->errors.push_back(failure);
          lad->compacting = false;
        }
        lad->cv.notify_all();
      }
      if (next) {
        try {
          pool->submit(std::move(next));
        } catch (...) {
          // Re-chain submit failed: release the token the replan took
          // and park — the next publish replans the same suffix.
          util::MutexLock lock(lad->mu);
          lad->compacting = false;
          lad->cv.notify_all();
        }
      }
    };
    lad->compacting = true;  // only after every fallible step above
    return task;
  }

  index_t n_;
  P p_;
  Weighting weighting_;
  util::ThreadPool* pool_;
  Compaction compaction_;
  std::size_t max_pending_merges_;
  std::shared_ptr<Ladder> ladder_;
};

}  // namespace detail
}  // namespace i2a::stream
