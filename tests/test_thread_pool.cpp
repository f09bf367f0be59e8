/// \file test_thread_pool.cpp
/// \brief The ThreadPool contract, pinned: construction edge cases
///        (0/1/N threads), the chunk decomposition `num_chunks`
///        predicts, exception propagation semantics, nested-submission
///        serialization, concurrent callers sharing one pool, repeated
///        teardown, and the `submit` background-task contract — run
///        exactly once, inline when workerless, drained (not dropped) at
///        destruction, serialized when fanning back into the pool, and
///        the first escaped task exception captured for
///        `take_submit_error` — plus the streaming builder's
///        background-compaction lifecycle built on it: tasks outliving
///        destroyed snapshots and builders, and a failed background
///        merge surfacing exactly once from `drain()` or the next
///        `ingest()` (peeking through `snapshot().pending_error()`). The
///        whole file is TSan-clean by design — the TSan CI leg runs it
///        as the pool's race-detection stress — and leak-free under the
///        ASan leg (detached tasks own their state via shared_ptr).

#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algebra/pairs.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

void test_construction_edge_cases() {
  // 0 and 1 both mean "no workers, caller does everything".
  util::ThreadPool p0(0);
  CHECK_EQ(p0.size(), 1u);
  util::ThreadPool p1(1);
  CHECK_EQ(p1.size(), 1u);
  util::ThreadPool p4(4);
  CHECK_EQ(p4.size(), 4u);
  // A pool that never receives work must tear down cleanly (workers are
  // parked in cv_.wait when stop is signalled).
  { util::ThreadPool idle(8); }
}

void test_num_chunks_predicts_decomposition() {
  util::ThreadPool pool(4);
  CHECK_EQ(pool.num_chunks(0), 0);
  CHECK_EQ(pool.num_chunks(-3), 0);
  CHECK_EQ(pool.num_chunks(1), 1);
  for (index_t n : {2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000}) {
    const index_t predicted = pool.num_chunks(n);
    CHECK(predicted >= 1 && predicted <= 4);
    // Observe the actual decomposition: every chunk id in [0, predicted)
    // exactly once, ranges disjoint and covering [0, n) in id order.
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(predicted));
    std::vector<index_t> begins(static_cast<std::size_t>(predicted), -1);
    std::vector<index_t> ends(static_cast<std::size_t>(predicted), -1);
    pool.parallel_for_chunks(n, [&](index_t c, index_t lo, index_t hi) {
      CHECK(c >= 0 && c < predicted);
      seen[static_cast<std::size_t>(c)].fetch_add(1);
      begins[static_cast<std::size_t>(c)] = lo;
      ends[static_cast<std::size_t>(c)] = hi;
    });
    index_t covered = 0;
    for (index_t c = 0; c < predicted; ++c) {
      CHECK_EQ(seen[static_cast<std::size_t>(c)].load(), 1);
      CHECK_EQ(begins[static_cast<std::size_t>(c)], covered);
      CHECK(ends[static_cast<std::size_t>(c)] >
            begins[static_cast<std::size_t>(c)]);
      covered = ends[static_cast<std::size_t>(c)];
    }
    CHECK_EQ(covered, n);
  }
  // Single-threaded pools always use one chunk.
  util::ThreadPool serial(1);
  for (index_t n : {1, 2, 100}) CHECK_EQ(serial.num_chunks(n), 1);
}

void test_parallel_for_coverage() {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    for (const index_t n : {0, 1, 3, 7, 8, 9, 1000}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pool.parallel_for(n, [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (index_t i = 0; i < n; ++i) {
        CHECK_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
      }
    }
  }
}

void test_exception_propagation() {
  util::ThreadPool pool(4);
  // A worker-chunk exception reaches the caller; every non-throwing
  // chunk still runs to completion before the rethrow (the join drains
  // first).
  std::atomic<int> completed{0};
  bool threw = false;
  try {
    pool.parallel_for_chunks(1000, [&](index_t c, index_t, index_t) {
      if (c == 2) throw std::runtime_error("chunk 2");
      completed.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    CHECK_EQ(std::string(e.what()), std::string("chunk 2"));
  }
  CHECK(threw);
  CHECK_EQ(completed.load(), static_cast<int>(pool.num_chunks(1000)) - 1);

  // The caller's own chunk (id 0) throwing must also wait for the
  // workers before propagating.
  completed.store(0);
  threw = false;
  try {
    pool.parallel_for_chunks(1000, [&](index_t c, index_t, index_t) {
      if (c == 0) throw std::runtime_error("chunk 0");
      completed.fetch_add(1);
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(completed.load(), static_cast<int>(pool.num_chunks(1000)) - 1);

  // Every chunk throwing: exactly one exception propagates (the first
  // recorded), the rest are swallowed, nothing crashes.
  threw = false;
  try {
    pool.parallel_for(1000, [&](index_t, index_t) {
      throw std::runtime_error("all");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);

  // The pool is fully reusable after an exception.
  std::atomic<index_t> sum{0};
  pool.parallel_for(100, [&](index_t lo, index_t hi) {
    index_t s = 0;
    for (index_t i = lo; i < hi; ++i) s += i;
    sum.fetch_add(s);
  });
  CHECK_EQ(sum.load(), 4950);
}

void test_nested_submission_serializes() {
  util::ThreadPool pool(4);
  // A parallel_for_chunks issued from inside a running chunk must not
  // deadlock (FIFO queue, no stealing — see the header contract); it
  // runs its whole range serially as chunk 0.
  std::atomic<index_t> total{0};
  std::atomic<int> nested_calls{0};
  std::atomic<int> nested_max_chunk{0};
  pool.parallel_for_chunks(8, [&](index_t, index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      pool.parallel_for_chunks(100, [&](index_t c, index_t nlo, index_t nhi) {
        nested_calls.fetch_add(1);
        int cur = nested_max_chunk.load();
        while (static_cast<index_t>(cur) < c &&
               !nested_max_chunk.compare_exchange_weak(
                   cur, static_cast<int>(c))) {
        }
        total.fetch_add(nhi - nlo);
      });
    }
  });
  CHECK_EQ(total.load(), 800);
  // Serialized: one invocation per nested call, always chunk 0.
  CHECK_EQ(nested_calls.load(), 8);
  CHECK_EQ(nested_max_chunk.load(), 0);
  // After the nested region, a top-level call parallelizes again.
  CHECK(pool.num_chunks(1000) > 1);
  std::atomic<int> chunks_seen{0};
  pool.parallel_for_chunks(1000, [&](index_t, index_t, index_t) {
    chunks_seen.fetch_add(1);
  });
  CHECK_EQ(chunks_seen.load(), static_cast<int>(pool.num_chunks(1000)));
}

void test_concurrent_callers() {
  // Multiple threads drive one pool at once: each call owns its join
  // state, so per-caller results stay independent and complete. This is
  // the TSan stress for enqueue/worker_loop/JoinState.
  util::ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::vector<index_t> results(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &results, t] {
      index_t local = 0;
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<index_t> sum{0};
        pool.parallel_for(500, [&](index_t lo, index_t hi) {
          index_t s = 0;
          for (index_t i = lo; i < hi; ++i) s += i + t;
          sum.fetch_add(s);
        });
        local += sum.load();
      }
      results[static_cast<std::size_t>(t)] = local;
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    const index_t expect = kRounds * (500 * 499 / 2 + 500 * t);
    CHECK_EQ(results[static_cast<std::size_t>(t)], expect);
  }
}

void test_exception_under_contention() {
  // Concurrent callers where some chunks throw: every caller receives
  // its own exception (or its own clean result), never a neighbor's.
  util::ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::vector<int> caught(kCallers, 0);
  std::vector<int> clean(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&pool, &caught, &clean, t] {
      for (int round = 0; round < 20; ++round) {
        const bool thrower = (round + t) % 2 == 0;
        try {
          pool.parallel_for_chunks(64, [&](index_t c, index_t, index_t) {
            if (thrower && c == 1) throw t;  // caller id as payload
          });
          clean[static_cast<std::size_t>(t)] += thrower ? 0 : 1;
        } catch (const int id) {
          if (id == t) caught[static_cast<std::size_t>(t)] += 1;
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    CHECK_EQ(caught[static_cast<std::size_t>(t)], 10);
    CHECK_EQ(clean[static_cast<std::size_t>(t)], 10);
  }
}

void test_repeated_teardown() {
  // Construct → work → destroy in a tight loop: the destructor's
  // stop/notify/join handshake runs while workers are at every stage of
  // their loop. TSan checks the handshake; the CHECKs pin liveness.
  for (int round = 0; round < 50; ++round) {
    util::ThreadPool pool(4);
    std::atomic<index_t> sum{0};
    pool.parallel_for(64, [&](index_t lo, index_t hi) {
      sum.fetch_add(hi - lo);
    });
    CHECK_EQ(sum.load(), 64);
  }
  for (int round = 0; round < 50; ++round) {
    util::ThreadPool pool(3);  // teardown with nothing ever enqueued
  }
}

void test_submit_basics() {
  // A submitted task runs exactly once.
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.submit([&] { ran.fetch_add(1); });
  while (ran.load() == 0) std::this_thread::yield();
  CHECK_EQ(ran.load(), 1);

  // Workerless pool: the task runs inline, before submit returns.
  util::ThreadPool serial(1);
  int inline_ran = 0;
  serial.submit([&] { inline_ran = 42; });
  CHECK_EQ(inline_ran, 42);

  // Destruction drains queued submissions instead of dropping them.
  std::atomic<int> drained{0};
  {
    util::ThreadPool p2(2);
    for (int i = 0; i < 64; ++i) {
      p2.submit([&] { drained.fetch_add(1); });
    }
  }
  CHECK_EQ(drained.load(), 64);

  // A task fanning back into its own pool serializes that region (same
  // FIFO-starvation argument as nested chunks): every nested invocation
  // is chunk 0.
  std::atomic<int> max_chunk{-1};
  std::atomic<bool> done{false};
  pool.submit([&] {
    pool.parallel_for_chunks(100, [&](index_t c, index_t, index_t) {
      int cur = max_chunk.load();
      while (static_cast<index_t>(cur) < c &&
             !max_chunk.compare_exchange_weak(cur, static_cast<int>(c))) {
      }
    });
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  CHECK_EQ(max_chunk.load(), 0);
}

stream::Options background_opts(util::ThreadPool* pool) {
  stream::Options o;
  o.pool = pool;
  o.compaction = stream::Compaction::kBackground;
  return o;
}

void test_background_task_outlives_snapshot() {
  // Pin a snapshot, then trigger a background compaction over the very
  // runs it pins, and destroy the snapshot while the merge may still be
  // running. The refcounts must keep every run alive exactly as long as
  // someone needs it (ASan would flag the use-after-free, TSan the
  // unsynchronized handoff).
  const algebra::PlusTimes<double> p;
  util::ThreadPool pool(2);
  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(
      8, p, background_opts(&pool));
  graph::Graph all(8);
  const std::vector<graph::Edge> batches[] = {
      {{0, 1, 1.0}}, {{1, 2, 1.0}}, {{2, 3, 1.0}}, {{0, 1, 1.0}}};
  for (int i = 0; i < 3; ++i) {
    builder.ingest(batches[i]);
    for (const auto& e : batches[i]) all.add_edge(e.src, e.dst, e.weight);
  }
  {
    const auto snap = builder.snapshot();  // pins the pre-compaction runs
    CHECK_EQ(snap.batches(), 3u);
    builder.ingest(batches[3]);  // schedules a merge over pinned runs
    for (const auto& e : batches[3]) all.add_edge(e.src, e.dst, e.weight);
  }  // snapshot dies here, compaction possibly mid-flight
  builder.drain();
  CHECK(i2a::test::csr_bitwise_equal(builder.adjacency(),
                                     graph::build_adjacency(all, p)));
}

void test_builder_destroyed_with_task_in_flight() {
  // The builder may die before its compaction task runs: the task owns
  // the ladder via shared_ptr and the pool drains its queue at
  // destruction, so nothing dangles and nothing leaks (ASan leg).
  util::ThreadPool pool(2);
  {
    stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(
        8, {}, background_opts(&pool));
    for (graph::Edge::vertex_type i = 0; i < 6; ++i) {
      builder.ingest(std::vector<graph::Edge>{{i % 7, i % 7 + 1, 1.0}});
    }
  }  // builder destroyed, tasks possibly queued or running
}  // pool destructor drains the remaining tasks

void test_background_exception_surfaces() {
  // A background merge failure must not vanish: it is delivered exactly
  // once, through whichever of drain() / the next ingest() comes first,
  // the failed-merge ladder stays serviceable for further appends, and
  // an ingest that delivers the error does NOT consume its batch.
  struct Boom {};
  struct ThrowingPlusTimes {
    using value_type = double;
    static constexpr std::string_view name() { return "+.* (throwing)"; }
    double zero() const { return 0.0; }
    double one() const { return 1.0; }
    double add(double, double) const { throw Boom{}; }
    double mul(double a, double b) const { return a * b; }
  };
  util::ThreadPool pool(2);
  stream::AdjacencyBuilder<ThrowingPlusTimes> builder(3, ThrowingPlusTimes{},
                                                      background_opts(&pool));
  // Two batches with the same edge: staging never folds (one product per
  // entry), but the scheduled compaction folds (0,1) with (0,1) — Boom,
  // captured in the background task.
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  // Channel 1: drain() settles the chain and rethrows the failure.
  bool threw = false;
  try {
    builder.drain();
  } catch (const Boom&) {
    threw = true;
  }
  CHECK(threw);
  builder.drain();  // delivered exactly once: a second drain is clean
  CHECK_EQ(builder.stats().compactions, 0u);
  // Channel 2: the next ingest(). Appending a third batch schedules
  // another doomed merge; snapshot() *peeks* the failure without
  // consuming it, which both proves the peek contract and lets the test
  // wait for the task deterministically.
  builder.ingest(std::vector<graph::Edge>{{1, 2, 1.0}});
  while (builder.snapshot().pending_error() == nullptr) {
    std::this_thread::yield();
  }
  CHECK(builder.snapshot().pending_error() != nullptr);  // peek ≠ consume
  threw = false;
  try {
    builder.ingest(std::vector<graph::Edge>{{2, 0, 1.0}});
  } catch (const Boom&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(builder.stats().batches, 3u);  // the erroring ingest consumed nothing
  // Delivered: the same batch now ingests fine.
  builder.ingest(std::vector<graph::Edge>{{2, 0, 1.0}});
  CHECK_EQ(builder.stats().batches, 4u);
  // That ingest scheduled one more doomed merge. Destroying the builder
  // with its failure still queued would trip the destructor's
  // undelivered-error assert (see test_failpoints for that contract), so
  // acknowledge it explicitly before teardown.
  CHECK_EQ(builder.dismiss_pending_errors(), 1u);
}

void test_submit_error_default_slot() {
  // Workerless pool: submit runs inline, so capture order is
  // deterministic. The default handler keeps the FIRST escaped
  // exception; take_submit_error is poll-and-clear.
  util::ThreadPool pool(1);
  CHECK(pool.take_submit_error() == nullptr);
  pool.submit([] { throw std::runtime_error("boom-1"); });
  pool.submit([] { throw std::runtime_error("boom-2"); });  // slot taken
  std::exception_ptr err = pool.take_submit_error();
  CHECK(err != nullptr);
  bool matched = false;
  try {
    std::rethrow_exception(err);
  } catch (const std::runtime_error& e) {
    matched = std::string_view(e.what()) == "boom-1";
  }
  CHECK(matched);
  CHECK(pool.take_submit_error() == nullptr);  // cleared by the take
  pool.submit([] { throw std::runtime_error("boom-3"); });  // slot free again
  err = pool.take_submit_error();
  CHECK(err != nullptr);
}

void test_submit_error_worker_thread() {
  // Same slot contract when the task runs on an actual worker.
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("worker-boom"); });
  std::exception_ptr err;
  while (!(err = pool.take_submit_error())) {
    std::this_thread::yield();
  }
  bool matched = false;
  try {
    std::rethrow_exception(err);
  } catch (const std::runtime_error& e) {
    matched = std::string_view(e.what()) == "worker-boom";
  }
  CHECK(matched);
}

}  // namespace

int main() {
  test_construction_edge_cases();
  test_num_chunks_predicts_decomposition();
  test_parallel_for_coverage();
  test_exception_propagation();
  test_nested_submission_serializes();
  test_concurrent_callers();
  test_exception_under_contention();
  test_repeated_teardown();
  test_submit_basics();
  test_submit_error_default_slot();
  test_submit_error_worker_thread();
  test_background_task_outlives_snapshot();
  test_builder_destroyed_with_task_in_flight();
  test_background_exception_surfaces();
  return TEST_MAIN_RESULT();
}
