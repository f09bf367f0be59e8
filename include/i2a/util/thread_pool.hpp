#pragma once
/// \file util/thread_pool.hpp
/// \brief Small fixed-size worker pool with a blocking `parallel_for`.
///
/// The SpGEMM kernels only need fork/join row-range parallelism, so the
/// pool exposes exactly that: `parallel_for(n, fn)` splits [0, n) into
/// contiguous chunks, runs them on the workers (the calling thread takes a
/// share too), and returns when every chunk is done. Exceptions from
/// worker chunks are captured and rethrown on the caller.
///
/// `parallel_for_chunks` additionally hands each chunk its id. The
/// decomposition is a pure function of (n, size()) — `num_chunks(n)`
/// predicts it — so callers can preallocate per-chunk scratch once and
/// reuse it across consecutive passes (the SpGEMM engine's compute and
/// stitch passes share the per-chunk output slabs this way).
///
/// `submit` adds detached background execution (the streaming builder's
/// compaction tasks): a fire-and-forget callable that runs on a worker
/// as soon as one is free, with the same FIFO queue the fork/join chunks
/// use. Queued submissions are drained — not dropped — by the
/// destructor, so a submitted task always runs exactly once. An
/// exception escaping a submitted task has no caller join to deliver it
/// to, so the first escaped exception is captured into a slot the owner
/// polls with `take_submit_error()`.
///
/// Lock discipline (DESIGN.md §11, checked by `-Wthread-safety`): `mu_`
/// guards the task queue and the stop flag; `submit_error_mu_` guards
/// the submit-error slot. The two are never held together.
/// Every guarded member carries `I2A_GUARDED_BY`, so any new code path
/// that touches pool state without the right lock is a compile error on
/// the CI thread-safety leg, not a TSan race some test has to schedule.

#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace i2a::util {

class ThreadPool {
 public:
  /// `num_threads` is the total degree of parallelism; the pool spawns
  /// `num_threads - 1` workers because the caller participates.
  explicit ThreadPool(std::size_t num_threads) {
    const std::size_t workers = num_threads > 1 ? num_threads - 1 : 0;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // NOLINTNEXTLINE(bugprone-exception-escape): thread::join can throw
  // std::system_error only for deadlock-with-self or invalid handles,
  // both of which are unrecoverable pool-usage bugs; terminating is the
  // right outcome.
  ~ThreadPool() I2A_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  std::size_t size() const { return workers_.size() + 1; }

  /// Number of chunks `parallel_for` / `parallel_for_chunks` will use for
  /// a trip count of `n`: 0 for an empty range, 1 when the pool is
  /// single-threaded or n == 1, otherwise ceil(n / ceil(n / size())).
  index_t num_chunks(index_t n) const {
    if (n <= 0) return 0;
    const auto chunks = static_cast<index_t>(size());
    if (chunks == 1 || n == 1) return 1;
    const index_t step = (n + chunks - 1) / chunks;
    return (n + step - 1) / step;
  }

  /// Run `fn(begin, end)` over a partition of [0, n) and wait for all
  /// chunks. `fn` must be safe to call concurrently on disjoint ranges.
  void parallel_for(index_t n,
                    const std::function<void(index_t, index_t)>& fn) {
    parallel_for_chunks(
        n, [&fn](index_t, index_t begin, index_t end) { fn(begin, end); });
  }

  /// Like `parallel_for`, but `fn(chunk, begin, end)` also receives the
  /// chunk id, a dense 0-based index below `num_chunks(n)`. Chunk `c`
  /// always covers the same row range for a given (n, size()), and no two
  /// chunks run with the same id, so scratch keyed by chunk id is both
  /// race-free and deterministic.
  ///
  /// Concurrency contract (pinned by test_thread_pool.cpp under TSan):
  /// distinct threads may call into one pool simultaneously — each call
  /// owns a private join state, so concurrent callers only share the
  /// task queue. A *nested* call (from inside a running chunk) runs its
  /// whole range serially as one chunk instead of enqueuing: the queue
  /// is FIFO with no work stealing, so nested sub-chunks could otherwise
  /// sit queued behind chunks whose threads are all blocked waiting on
  /// those very sub-chunks — a deadlock. Serial nesting keeps the same
  /// bytes (every engine is pool-size-invariant, and the serialized
  /// decomposition is the pool-size-1 one); `num_chunks` describes
  /// non-nested calls.
  void parallel_for_chunks(
      index_t n, const std::function<void(index_t, index_t, index_t)>& fn)
      I2A_EXCLUDES(mu_) {
    if (n <= 0) return;
    const auto chunks = static_cast<index_t>(size());
    if (chunks == 1 || n == 1 || in_chunk()) {
      ChunkGuard guard;
      fn(0, 0, n);
      return;
    }
    const index_t step = (n + chunks - 1) / chunks;
    // Join state lives on the heap and is owned by every worker lambda:
    // a worker's final notify may run after the caller has already seen
    // pending == 0, so stack-local state would be a use-after-scope.
    struct JoinState {
      Mutex mu;
      CondVar cv;
      index_t pending I2A_GUARDED_BY(mu) = 0;
      std::exception_ptr error I2A_GUARDED_BY(mu);
    };
    const auto state = std::make_shared<JoinState>();

    for (index_t begin = step; begin < n; begin += step) {
      const index_t end = begin + step < n ? begin + step : n;
      // `fn` is captured by reference but only used before the pending
      // decrement, which the caller's join waits on. The increment
      // happens only after a successful enqueue: if the queue push ever
      // threw, an early increment would strand `pending` nonzero and
      // deadlock the join. (A transiently negative count while a fast
      // worker finishes first is fine — the caller only evaluates the
      // predicate after all increments.)
      try {
        enqueue([state, &fn, begin, end, step] {
          try {
            ChunkGuard guard;
            fn(begin / step, begin, end);
          } catch (...) {
            MutexLock lock(state->mu);
            if (!state->error) state->error = std::current_exception();
          }
          {
            MutexLock lock(state->mu);
            --state->pending;
          }
          state->cv.notify_one();
        });
      } catch (...) {
        // A failed push must not unwind while already-enqueued chunks
        // still hold their reference to `fn` (and to this frame's
        // `state` use): drain them, then rethrow the push failure.
        MutexLock lock(state->mu);
        while (state->pending != 0) state->cv.wait(state->mu);
        throw;
      }
      {
        MutexLock lock(state->mu);
        ++state->pending;
      }
    }
    // The caller runs the first chunk instead of idling. Its exception
    // must not propagate until every worker chunk has drained.
    try {
      ChunkGuard guard;
      fn(0, 0, step < n ? step : n);
    } catch (...) {
      MutexLock lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    // Take the error out of the join state under its lock and rethrow it
    // unlocked: a worker may still drop the state's last reference after
    // its final notify, and it must not release the exception then —
    // libstdc++'s exception refcount is invisible to TSan.
    std::exception_ptr error;
    {
      MutexLock lock(state->mu);
      while (state->pending != 0) state->cv.wait(state->mu);
      error = std::move(state->error);
    }
    if (error) std::rethrow_exception(std::move(error));
  }

  /// Detached background task: runs once on a worker thread (FIFO with
  /// the fork/join chunks), or inline — before `submit` returns — when
  /// the pool has no workers, so background work never silently starves
  /// on a single-threaded pool. The task body executes under the same
  /// in-chunk marker as a fork/join chunk: a submitted task that fans
  /// back into this pool with `parallel_for` runs that region serially,
  /// by the identical FIFO-starvation argument as nested chunks (its
  /// sub-chunks could sit queued behind tasks whose workers are blocked
  /// waiting on them). An exception escaping the callable never reaches
  /// std::terminate: the first one is stored for `take_submit_error`.
  /// `submit` itself may throw (queue allocation) — the task then never
  /// ran, and the caller still owns the work.
  void submit(std::function<void()> task) I2A_EXCLUDES(mu_) {
    auto guarded = [this, t = std::move(task)] {
      ChunkGuard guard;
      try {
        t();
      } catch (...) {
        note_submit_error(std::current_exception());
      }
    };
    if (workers_.empty()) {
      guarded();
      return;
    }
    enqueue(std::move(guarded));
  }

  /// Poll-and-clear the slot: the first escaped submit-task exception
  /// since the last take, or nullptr. The owner of a pool running
  /// fire-and-forget work polls this at its own error boundaries (the
  /// streaming builder surfaces its merge failures through its own error
  /// queue instead — this slot is the safety net for everything else).
  std::exception_ptr take_submit_error() I2A_EXCLUDES(submit_error_mu_) {
    MutexLock lock(submit_error_mu_);
    return std::exchange(submit_error_, nullptr);
  }

 private:
  void note_submit_error(std::exception_ptr error)
      I2A_EXCLUDES(submit_error_mu_) {
    MutexLock lock(submit_error_mu_);
    if (!submit_error_) submit_error_ = std::move(error);
  }

  /// True while the current thread is executing a chunk body (of any
  /// pool — the deadlock argument above only needs "this thread is
  /// inside a fork/join region", and a cross-pool nested fan-out from a
  /// blocked-upon chunk has the same shape).
  static bool& in_chunk() {
    static thread_local bool value = false;
    return value;
  }

  /// RAII marker for chunk execution; restores the previous state so
  /// sequential sibling calls after a nested region see it cleared.
  struct ChunkGuard {
    bool prev;
    ChunkGuard() : prev(in_chunk()) { in_chunk() = true; }
    ~ChunkGuard() { in_chunk() = prev; }
    ChunkGuard(const ChunkGuard&) = delete;
    ChunkGuard& operator=(const ChunkGuard&) = delete;
  };

  void enqueue(std::function<void()> task) I2A_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      tasks_.push(std::move(task));
    }
    cv_.notify_one();
  }

  void worker_loop() I2A_EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stopping_ && tasks_.empty()) cv_.wait(mu_);
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;  ///< written in ctor, joined in dtor only
  Mutex mu_;
  CondVar cv_;  ///< signaled on enqueue and on stop
  std::queue<std::function<void()>> tasks_ I2A_GUARDED_BY(mu_);
  bool stopping_ I2A_GUARDED_BY(mu_) = false;
  Mutex submit_error_mu_;
  std::exception_ptr submit_error_ I2A_GUARDED_BY(submit_error_mu_);
};

}  // namespace i2a::util
