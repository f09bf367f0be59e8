#pragma once
/// \file stream/shard.hpp
/// \brief The state block behind the streaming builder (internal; the
///        public surface is `ShardedBuilder` / `AdjacencyBuilder`): one
///        refcounted `detail::State` per builder holding every shard's
///        run-list ladder, the epoch, the deferred-error queue, the
///        checkpoint token and the cost counters under one mutex, plus
///        the compaction policy, backpressure and the background tasks
///        that share the block, and the shard hash `shard_index`. It
///        neither validates, routes nor logs — stream/sharded_builder.hpp
///        does that.
///
/// **Run-list ladder.** Each shard keeps a list of immutable refcounted
/// hypersparse runs (`sparse::Dcsr`: only the rows the run's batches
/// name are stored), oldest first, each the ⊕-fold of a consecutive
/// interval of batches. After a batch's delta (weight 1) is appended, the
/// *compaction policy* merges the maximal balanced suffix: the longest
/// tail in which every run's weight is ≤ the combined weight of the runs
/// after it. Settled weights are therefore super-increasing, which
/// bounds live runs by log₂(batches) + 1 and rewrites each stored entry
/// O(log batches) times (DESIGN.md §7, §9). Age order is preserved end
/// to end, so the ⊕-merge of the runs is byte-identical to a rebuild.
///
/// **Concurrency.** `State::mu` guards every mutable field (checked at
/// compile time, DESIGN.md §11). Row shards share no data, only the
/// epoch, so under the lock there are only splices, pins (O(live runs)
/// shared_ptr copies), counter bumps and token flips; staging, merges,
/// WAL appends and checkpoint writes run outside it, so a reader never
/// waits on a merge. `Compaction::kInline` settles a private copy of
/// each shard's run list inside the publish; `kBackground` hands one
/// merge per shard to the pool as a detached task that owns the block by
/// shared_ptr (it may outlive the builder), splices when done and
/// re-chains the next merge as a fresh task — so one shard's carry chain
/// never holds a worker that other shards' merges and the checkpoint
/// wait for. At most one merge per shard is in flight.
///
/// **Failures (DESIGN.md §10).** Everything fallible runs in
/// `prepare_publish`; `commit_publish` is noexcept. A background merge or
/// checkpoint failure has no caller to throw at, so it is queued in the
/// builder's one error queue: popped oldest first, exactly once, by
/// `drain()` / `ingest()`, peeked by pins. A failed task submit runs the
/// task inline instead (absorbed, counted in `backpressure_events`).
///
/// **Backpressure.** In background mode `max_pending_merges` caps the
/// merges the policy still owes a shard: over the cap, `backpressure()`
/// waits out that shard's in-flight task and, if still over, settles its
/// ladder on the writer's thread.
///
/// **Memory.** In background mode a run hands the pages of its large
/// arrays back to the OS when its last reference drops
/// (`detail::ReleasingDelete`, then the free; the page calls live in
/// util/pages.hpp). Merges run on pool workers, and the order in which
/// runs are freed follows the race between the writer, the workers and
/// the readers' pins. A C heap keeps freed pages resident and reuses
/// them only where a new array fits. So without the release, whether a
/// large merge output lands in freed memory or grows the heap depends on
/// timing, and so does the resident set. Inline mode keeps plain runs:
/// its merges run inside the ingest, so a released page that faults
/// back in would be paid in the acknowledgement. Merge outputs are not
/// faulted in ahead (`util::populate_pages`): on the bench workloads
/// that measured within the noise of the acknowledgement latency.
///
/// Canonical-DCSR postconditions (`I2A_ENSURES`) hold for every run the
/// ladder exposes — per-batch delta, inline merge, background merge or
/// recovered checkpoint run.

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
#include "sparse/dcsr.hpp"
#include "sparse/merge.hpp"
#include "sparse/spgemm.hpp"
#include "stream/checkpoint.hpp"
#include "stream/wal.hpp"
#include "util/contract.hpp"
#include "util/failpoint.hpp"
#include "util/pages.hpp"
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

/// Which of `shards` row shards owns vertex `v` — and so adjacency row
/// `v`. A splitmix64-style finalizer over the id, not `v % shards`:
/// generator ids are dense and real-world id schemes stripe, so a plain
/// modulus can systematically starve shards (DESIGN.md §9). The builder
/// routes edges with it and `PinnedSnapshot::fold_row` routes reads.
inline std::size_t shard_index(index_t v, std::size_t shards) {
  auto x = static_cast<std::uint64_t>(v);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % static_cast<std::uint64_t>(shards));
}

namespace detail {

/// Deleter of a background-mode run: releases the pages of each of its
/// four arrays that spans at least `kMinBytes` (`util::release_pages`),
/// then frees them (file comment, "Memory"). The floor is glibc's default mmap threshold:
/// arrays that large would get their own mapping, returned on free, if
/// the threshold had not adapted upwards. Smaller ones are reused from
/// the heap soon enough that releasing them would mostly add page
/// faults to the next merges.
struct ReleasingDelete {
  static constexpr std::size_t kMinBytes = std::size_t{128} << 10;

  template <typename M>
  void operator()(const M* m) const noexcept {
    const auto release = [](const auto& v) {
      const std::size_t bytes = v.capacity() * sizeof(v[0]);
      if (bytes >= kMinBytes) util::release_pages(v.data(), bytes);
    };
    release(m->row_ids());
    release(m->row_ptr());
    release(m->cols());
    release(m->vals());
    delete m;
  }
};

/// One builder's shared state. Heap-held and refcounted: the builder
/// owns it (so the builder stays movable) and every background task
/// holds it, so a task may outlive the builder. The configuration is
/// fixed at construction and read without the lock; `mu` guards the rest.
template <typename P>
  requires algebra::Semiring<P>
struct State : std::enable_shared_from_this<State<P>> {
  using value_type = typename P::value_type;
  using RunMatrix = sparse::Dcsr<value_type>;
  using RunPtr = std::shared_ptr<const RunMatrix>;
  /// One immutable ladder run: the ⊕-fold of `weight` consecutive
  /// non-empty batches, stored hypersparse — exactly the unit a
  /// checkpoint stores.
  using Run = CheckpointRun<value_type, RunMatrix>;

  /// One shard's ladder: only what is per-shard.
  struct Ladder {
    std::vector<Run> runs;    ///< oldest first, consecutive intervals
    bool compacting = false;  ///< a merge holds this shard's token
    std::uint64_t edges = 0;  ///< edges routed here (checkpoints store it)
  };

  /// One shard's staged-but-uncommitted half of a publish.
  /// `prepare_publish` does everything that can throw; `commit_publish`
  /// consumes the result with no fallible step, which is what lets the
  /// builder prepare every shard first and then commit them all without
  /// risking a torn epoch.
  struct Prepared {
    RunPtr delta;  ///< nullptr for an empty part (the ⊕-identity)
    std::uint64_t delta_nnz = 0;
    std::size_t edges = 0;
    std::vector<Run> runs;  ///< inline mode: the fully settled new list
    std::uint64_t compactions = 0;
    std::uint64_t merged_entries = 0;
  };

  State(index_t num_vertices, std::size_t shard_count, P pair,
        const Options& opts)
      : n(num_vertices), p(std::move(pair)), weighting(opts.weighting),
        pool(opts.pool),
        compaction(opts.pool != nullptr ? opts.compaction
                                        : Compaction::kInline),
        max_pending_merges(opts.max_pending_merges),
        num_shards(shard_count), shards(shard_count) {}

  const index_t n;
  const P p;
  const Weighting weighting;
  util::ThreadPool* const pool;
  const Compaction compaction;
  const std::size_t max_pending_merges;
  const std::size_t num_shards;

  util::Mutex mu;
  util::CondVar cv;  ///< signaled when a compaction or checkpoint ends
  std::uint64_t epoch I2A_GUARDED_BY(mu) = 0;  ///< committed batches
  std::vector<Ladder> shards I2A_GUARDED_BY(mu);
  /// Queued background failures of every shard and the checkpoint,
  /// oldest first; each is delivered exactly once (popped) and may be
  /// peeked any number of times (pinned).
  std::vector<std::exception_ptr> errors I2A_GUARDED_BY(mu);
  /// True while a checkpoint is in flight.
  bool checkpointing I2A_GUARDED_BY(mu) = false;
  /// Builder-wide counters; `edges` and `pending_merges` are summed over
  /// the shards and `batches` is the epoch, at `stats()` time.
  BuilderStats stats I2A_GUARDED_BY(mu);

  /// Share `m` as an immutable run. In background mode the run releases
  /// its pages when its last reference drops (file comment, "Memory").
  RunPtr share(RunMatrix&& m) const {
    if (compaction != Compaction::kBackground) {
      return std::make_shared<const RunMatrix>(std::move(m));
    }
    return RunPtr(new RunMatrix(std::move(m)), ReleasingDelete{});
  }

  /// Block until no compaction (on any shard) or checkpoint is in flight.
  void settle_locked() I2A_REQUIRES(mu) {
    for (;;) {
      bool busy = checkpointing;
      for (const Ladder& l : shards) busy = busy || l.compacting;
      if (!busy) return;
      cv.wait(mu);
    }
  }

  /// How many merges the compaction policy still owes shard `s` —
  /// simulated on the run weights alone (no data touched).
  std::size_t pending_merges_locked(std::size_t s) const I2A_REQUIRES(mu) {
    std::vector<std::uint64_t> w;
    w.reserve(shards[s].runs.size());
    for (const Run& r : shards[s].runs) w.push_back(r.weight);
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

  /// Build one shard's part of a batch into its delta adjacency: the
  /// sort-free incidence arrays, then `adjacency_array` with kAuto, which
  /// ⊕-folds the part's per-edge ⊗-terms with the build kernel (no
  /// transpose, O(m) scratch; `detail::build_csr`, sparse/csr.hpp). Then
  /// drop the delta's empty rows; its n + 1 row pointer is the one O(n)
  /// transient per delta, and the run keeps only the rows the part's
  /// sources name. Touches no guarded state, so it runs lock-free.
  Prepared stage(std::span<const graph::Edge> part) const {
    Prepared prep;
    prep.edges = part.size();
    if (part.empty()) return prep;
    // Injection site: the whole staging pipeline for a non-empty batch.
    // A fire here (or in the incidence/SpGEMM sites downstream) leaves
    // the ladder untouched — ingest's strong guarantee.
    I2A_FAILPOINT("builder.stage.batch");
    graph::Graph g(n);
    g.edges().assign(part.begin(), part.end());
    const auto inc = weighting == Weighting::kWeighted
                         ? graph::weighted_incidence_arrays(g, p, pool)
                         : graph::incidence_arrays(g, p, pool);
    auto delta = RunMatrix::compress(graph::adjacency_array(
        p, inc, sparse::SpGemmAlgo::kAuto, pool));
    I2A_ENSURES(delta.is_canonical(), "stream: staged delta not canonical");
    prep.delta_nnz = static_cast<std::uint64_t>(delta.nnz());
    prep.delta = share(std::move(delta));
    return prep;
  }

  /// Phase 1 of a publish: everything fallible. Inline mode settles each
  /// shard on a private copy of its run list (concurrent readers keep
  /// pinning the old lists; a throwing ⊕ leaves runs and stats
  /// untouched). Background mode only reserves what `commit_publish`
  /// will need, so the commit's push_back cannot throw.
  void prepare_publish(std::vector<Prepared>& preps) I2A_EXCLUDES(mu) {
    if (compaction == Compaction::kInline) {
      {
        util::MutexLock lock(mu);
        for (std::size_t s = 0; s < num_shards; ++s) {
          preps[s].runs = shards[s].runs;
        }
      }
      for (Prepared& prep : preps) {
        if (prep.delta) prep.runs.push_back(Run{std::move(prep.delta), 1});
        settle_runs(prep.runs, prep.compactions, prep.merged_entries);
      }
      return;
    }
    util::MutexLock lock(mu);
    for (Ladder& l : shards) l.runs.reserve(l.runs.size() + 1);
    // A spare error slot per shard, so a background task's failure
    // report cannot itself die on allocation in the common case.
    errors.reserve(errors.size() + num_shards);
  }

  /// Phase 2 of a publish: every shard's splice, the counter bumps and
  /// the new epoch in one critical section, with no fallible step (the
  /// lint rule `commit-noexcept` keeps this declaration), so a pin sees
  /// every shard at the same epoch. Scheduling the merges it makes due
  /// is a separate step, `schedule_compaction`.
  void commit_publish(std::vector<Prepared>& preps,
                      std::uint64_t new_epoch) noexcept I2A_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    for (std::size_t s = 0; s < num_shards; ++s) {
      Prepared& prep = preps[s];
      if (compaction == Compaction::kInline) {
        shards[s].runs = std::move(prep.runs);
        stats.compactions += prep.compactions;
        stats.merged_entries += prep.merged_entries;
      } else if (prep.delta) {
        shards[s].runs.push_back(Run{std::move(prep.delta), 1});
      }
      shards[s].edges += prep.edges;
      stats.delta_entries += prep.delta_nnz;
    }
    epoch = new_epoch;
  }

  /// Hand `task` to the pool. No pool, or a failed submit — absorbed,
  /// counted in `backpressure_events` — runs it on this thread instead.
  /// The `builder.background.submit` site is evaluated for compaction
  /// tasks only.
  template <typename Task>
  // NOLINTNEXTLINE(bugprone-exception-escape): every throw below is caught
  // at an absorb boundary documented in DESIGN.md §10.
  void submit_or_run(const Task& task, bool is_compaction) noexcept
      I2A_EXCLUDES(mu) {
    if (pool != nullptr) {
      try {
        // Injection site: handing a compaction task to the pool. A fire
        // (or a real queue-allocation failure) must not lose the merge:
        // it runs inline below instead.
        if (is_compaction) I2A_FAILPOINT("builder.background.submit");
        // A copy: submit may consume its argument even when it throws.
        pool->submit(std::function<void()>(task));
        return;
      } catch (...) {
        util::MutexLock lock(mu);
        ++stats.backpressure_events;
      }
    }
    try {
      task();  // the task body queues its own failures
    } catch (...) {
      // Only reachable if the task's failure *reporting* failed on
      // allocation (prepare reserves a slot against exactly this).
    }
  }

  /// Background mode, after a commit: plan shard `s`'s due merge and hand
  /// it to the pool. The caller holds no lock — a workerless pool runs
  /// the task right here, and a reader must not wait on it. A failed
  /// plan parks the chain (the next publish replans). Never throws: the
  /// batch is already committed.
  // NOLINTNEXTLINE(bugprone-exception-escape): every throw below is caught
  // at an absorb boundary documented in DESIGN.md §10.
  void schedule_compaction(std::size_t s) noexcept I2A_EXCLUDES(mu) {
    if (compaction != Compaction::kBackground) return;
    std::function<void()> task;
    {
      util::MutexLock lock(mu);
      try {
        task = plan_task_locked(s);
      } catch (...) {
        // Planning allocates (group copy, std::function); the token was
        // never taken, so the chain parks until the next publish.
      }
    }
    if (task) submit_or_run(task, /*is_compaction=*/true);
  }

  /// Post-publish backpressure on shard `s` (background mode with a
  /// bounded `max_pending_merges` only): over budget, the writer stalls —
  /// one `backpressure_events` tick — waits out the shard's in-flight
  /// task, and if still over budget claims the compaction token and
  /// settles the ladder on this thread. A merge failure here is queued
  /// (the batch is already consumed); the old run list stays.
  void backpressure(std::size_t s) I2A_EXCLUDES(mu) {
    if (compaction != Compaction::kBackground) return;
    if (max_pending_merges == kUnboundedPendingMerges) return;
    util::MutexLock lock(mu);
    if (pending_merges_locked(s) <= max_pending_merges) return;
    ++stats.backpressure_events;
    while (shards[s].compacting) cv.wait(mu);
    if (pending_merges_locked(s) <= max_pending_merges) return;
    std::vector<Run> runs = shards[s].runs;
    shards[s].compacting = true;
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
      shards[s].runs = std::move(runs);
      stats.compactions += compactions;
      stats.merged_entries += merged_entries;
    } else {
      errors.push_back(failure);
    }
    shards[s].compacting = false;
    lock.unlock();
    cv.notify_all();
  }

  /// At a checkpoint boundary: unless a checkpoint is in flight, copy
  /// every shard's run list and edge counter — one consistent cut at the
  /// current epoch — and take the checkpoint token. False, with nothing
  /// copied, while the token is taken; a throwing copy leaves it free.
  bool claim_checkpoint(std::vector<std::vector<Run>>& runs,
                        std::vector<std::uint64_t>& edges) I2A_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    if (checkpointing) return false;
    for (const Ladder& l : shards) {
      runs.push_back(l.runs);
      edges.push_back(l.edges);
    }
    checkpointing = true;
    return true;
  }

  /// Run `write` (a checkpoint) on the pool under the token
  /// `claim_checkpoint` took. The task releases the token, counts a
  /// success in `Stats::checkpoints` and queues a failure as a deferred
  /// error — the batch that crossed the boundary is already committed.
  /// It shares the state, so it may outlive the builder, and a settle
  /// waits for it. `Write` must be nothrow-movable: from the token to
  /// the task nothing may throw.
  template <typename Write>
  void run_checkpoint(Write write) noexcept I2A_EXCLUDES(mu) {
    auto task = [st = this->shared_from_this(), write = std::move(write)] {
      std::exception_ptr failure;
      try {
        write();
      } catch (...) {
        failure = std::current_exception();
      }
      {
        util::MutexLock lock(st->mu);
        if (!failure) {
          ++st->stats.checkpoints;
        } else {
          try {
            st->errors.push_back(failure);
          } catch (...) {
            // Reporting failed on allocation. The token must still be
            // released, so the failure is dropped; the failed checkpoint
            // already removed its temp file, so no durable state is
            // inconsistent.
          }
        }
        st->checkpointing = false;
      }
      st->cv.notify_all();
    };
    submit_or_run(task, /*is_compaction=*/false);
  }

  /// Run the compaction policy to a fixed point on a private run list,
  /// accumulating stat deltas. Throws on merge failure (callers pick the
  /// delivery channel); the list is then mid-settle but private.
  void settle_runs(std::vector<Run>& runs, std::uint64_t& compactions,
                   std::uint64_t& merged_entries) const {
    for (auto [lo, hi] = plan_suffix(runs); hi > lo;
         std::tie(lo, hi) = plan_suffix(runs)) {
      Run merged = merge_group(runs, lo, hi, pool);
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
  /// `merge_pool` == nullptr: the merge is pool-size invariant, and a
  /// detached task must not fan back into the pool it occupies.
  Run merge_group(const std::vector<Run>& runs, std::size_t lo,
                  std::size_t hi, util::ThreadPool* merge_pool) const {
    std::vector<const RunMatrix*> group;
    group.reserve(hi - lo);
    std::uint64_t weight = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      group.push_back(runs[i].csr.get());
      weight += runs[i].weight;
    }
    auto merged = sparse::merge_add_k(
        group,
        [this](const value_type& x, const value_type& y) {
          return p.add(x, y);
        },
        merge_pool);
    I2A_ENSURES(merged.is_canonical(),
                "stream: compaction produced non-canonical run");
    return Run{share(std::move(merged)), weight};
  }

  /// Under the lock: if shard `s` has no merge in flight and a suffix
  /// qualifies, take its compaction token and return the task that
  /// performs the merge. The task owns the state, captures the group's
  /// run handles by value (indices stay valid: the writer only appends
  /// and only this task replaces), merges once, splices, and re-chains
  /// the next due merge as a fresh task. All allocation happens before
  /// the token is taken, so a throw leaves the shard unclaimed.
  std::function<void()> plan_task_locked(std::size_t s) I2A_REQUIRES(mu) {
    if (shards[s].compacting) return nullptr;
    const std::vector<Run>& runs = shards[s].runs;
    const auto [lo, hi] = plan_suffix(runs);
    if (hi <= lo) return nullptr;
    std::vector<Run> group(runs.begin() + static_cast<std::ptrdiff_t>(lo),
                           runs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::function<void()> task = [st = this->shared_from_this(), s,
                                  group = std::move(group), lo, hi] {
      // The merge runs unlocked; its outcome is committed under one
      // locked scope so no lock operation sits on an exceptional edge.
      Run merged{};
      std::exception_ptr failure;
      try {
        merged = st->merge_group(group, 0, group.size(), nullptr);
        // Injection site: the background twin of the inline splice site.
        I2A_FAILPOINT("builder.ladder.splice");
      } catch (...) {
        failure = std::current_exception();
      }
      std::function<void()> next;
      {
        util::MutexLock lock(st->mu);
        Ladder& l = st->shards[s];
        if (!failure) {
          l.runs.erase(l.runs.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                       l.runs.begin() + static_cast<std::ptrdiff_t>(hi));
          l.runs[lo] = std::move(merged);
          ++st->stats.compactions;
          st->stats.merged_entries +=
              static_cast<std::uint64_t>(l.runs[lo].csr->nnz());
          l.compacting = false;
          try {
            next = st->plan_task_locked(s);
          } catch (...) {
            // Replanning failed to allocate: the chain parks (token
            // free) and the next publish replans. No work is lost.
          }
        } else {
          // The chain parks; the failure is delivered exactly once. This
          // push_back is the one spot where reporting can itself fail on
          // allocation (prepare reserves a spare slot); an escape lands
          // in the pool's submit-error slot, never std::terminate.
          st->errors.push_back(failure);
          l.compacting = false;
        }
        st->cv.notify_all();
      }
      if (next) {
        try {
          st->pool->submit(std::move(next));
        } catch (...) {
          // Re-chain submit failed: release the token the replan took
          // and park — the next publish replans the same suffix.
          util::MutexLock lock(st->mu);
          st->shards[s].compacting = false;
          st->cv.notify_all();
        }
      }
    };
    shards[s].compacting = true;  // only after every fallible step above
    return task;
  }
};

}  // namespace detail
}  // namespace i2a::stream
