/// \file bench_serve.cpp
/// \brief PERF7: the concurrent serving core. Two questions, numbers
///        committed as BENCH_serve.json:
///
///   1. `BM_ServeIngestThroughput` — pure ingest rate (edges/s) through
///      `stream::ShardedBuilder` with background compaction, vs shard
///      count (1 = the degenerate single-builder fuse). Shards share
///      nothing on the hot path, so on multi-core hardware the staging +
///      compaction work spreads; on a single hardware thread the curve
///      is expected roughly flat (DESIGN.md §9). The file's context
///      records `hardware_threads`; read the numbers with it in mind.
///
///   2. `BM_ServeMixed` — the serving mix: this thread streams every
///      batch while two query threads continuously pin snapshots and run
///      a `fold_row` BFS against them, no locks between the sides.
///      Counters report query latency percentiles (q_p50_ms / q_p99_ms,
///      measured per pin+traverse round on the reader threads) next to
///      writer throughput — the "queries while ingesting" deliverable.
///
///   3. `BM_ServeDegraded` — the same mix with a bounded
///      `max_pending_merges` (DESIGN.md §10): over budget, the writer
///      stalls until the compaction chain catches up (settling inline if
///      it cannot), trading ingest throughput for a bounded run list.
///      Two budget points: 1 (tolerates the in-flight merge — the bound
///      rarely bites, pure bookkeeping overhead) and 0 (every pending
///      merge stalls the writer — backpressure continuously active).
///      backpressure_events counts how often the bound bit; compare
///      items/s and q_p99_ms against BM_ServeMixed to read the price.
///
/// All three run work on pool workers and reader threads, which the
/// main thread's CPU clock does not see, so they time wall clock
/// (`UseRealTime`): items/s is edges per wall second.

#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "algebra/pairs.hpp"
#include "graph/algorithms/bfs.hpp"
#include "graph/incidence.hpp"
#include "stream/sharded_builder.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace i2a;

constexpr int kScale = 12;          // 4096 vertices
constexpr index_t kEdgeFactor = 8;  // 32768 edges
constexpr index_t kBatches = 64;
constexpr std::size_t kQueryThreads = 2;

std::vector<std::span<const graph::Edge>> split_batches(
    const std::vector<graph::Edge>& edges, index_t nbatches) {
  std::vector<std::span<const graph::Edge>> out;
  const std::size_t per =
      (edges.size() + static_cast<std::size_t>(nbatches) - 1) /
      static_cast<std::size_t>(nbatches);
  for (std::size_t lo = 0; lo < edges.size(); lo += per) {
    const std::size_t hi = std::min(edges.size(), lo + per);
    out.emplace_back(edges.data() + lo, hi - lo);
  }
  return out;
}

/// Background compaction on `pool`, unweighted.
stream::Options background_opts(util::ThreadPool* pool,
                                std::size_t max_pending_merges =
                                    stream::kUnboundedPendingMerges) {
  stream::Options o;
  o.pool = pool;
  o.compaction = stream::Compaction::kBackground;
  o.max_pending_merges = max_pending_merges;
  return o;
}

double percentile_ms(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto idx =
      static_cast<std::ptrdiff_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[static_cast<std::size_t>(idx)];
}

/// Ingest the whole stream (background compaction on a shared pool),
/// drain, one final snapshot. Arg = shard count.
void BM_ServeIngestThroughput(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), kBatches);
  const algebra::PlusTimes<double> p;
  const auto shards = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(4);
  std::uint64_t final_nnz = 0;
  for (auto _ : state) {
    stream::ShardedBuilder<algebra::PlusTimes<double>> b(
        g.num_vertices(), shards, p, background_opts(&pool));
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    const auto a = b.adjacency();
    benchmark::DoNotOptimize(a.nnz());
    final_nnz = static_cast<std::uint64_t>(a.nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["final_nnz"] = static_cast<double>(final_nnz);
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ServeIngestThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Writer streams all batches while kQueryThreads readers pin + BFS
/// continuously. Items processed = edges ingested (writer throughput);
/// the latency counters come from the reader-side clock.
void BM_ServeMixed(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), kBatches);
  const algebra::PlusTimes<double> p;
  const auto shards = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(4);
  std::vector<double> latencies_ms;
  for (auto _ : state) {
    stream::ShardedBuilder<algebra::PlusTimes<double>> b(
        g.num_vertices(), shards, p, background_opts(&pool));
    std::atomic<bool> done{false};
    std::vector<std::vector<double>> per_reader(kQueryThreads);
    std::vector<std::thread> readers;
    readers.reserve(kQueryThreads);
    for (std::size_t t = 0; t < kQueryThreads; ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t src = 0x9e3779b9u + t;
        do {
          const auto t0 = std::chrono::steady_clock::now();
          const auto snap = b.snapshot();
          const auto levels = graph::bfs_levels(
              snap, static_cast<index_t>(
                        src % static_cast<std::uint64_t>(g.num_vertices())));
          benchmark::DoNotOptimize(levels.size());
          const auto t1 = std::chrono::steady_clock::now();
          per_reader[t].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          src = src * 6364136223846793005ULL + 1442695040888963407ULL;
        } while (!done.load());
      });
    }
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    done.store(true);
    for (auto& r : readers) r.join();
    for (auto& v : per_reader) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["queries"] = static_cast<double>(latencies_ms.size());
  state.counters["q_p50_ms"] = percentile_ms(latencies_ms, 0.50);
  state.counters["q_p99_ms"] = percentile_ms(latencies_ms, 0.99);
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ServeMixed)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// BM_ServeMixed under backpressure: background compaction with the
/// merge debt bounded, so the writer stalls (and settles inline when the
/// chain cannot catch up) whenever it runs ahead of the pool.
/// Args = {shard count, max_pending_merges budget}.
void BM_ServeDegraded(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), kBatches);
  const algebra::PlusTimes<double> p;
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto kMaxPendingMerges = static_cast<std::size_t>(state.range(1));
  util::ThreadPool pool(4);
  std::vector<double> latencies_ms;
  std::uint64_t backpressure_events = 0;
  for (auto _ : state) {
    stream::ShardedBuilder<algebra::PlusTimes<double>> b(
        g.num_vertices(), shards, p,
        background_opts(&pool, kMaxPendingMerges));
    std::atomic<bool> done{false};
    std::vector<std::vector<double>> per_reader(kQueryThreads);
    std::vector<std::thread> readers;
    readers.reserve(kQueryThreads);
    for (std::size_t t = 0; t < kQueryThreads; ++t) {
      readers.emplace_back([&, t] {
        std::uint64_t src = 0x9e3779b9u + t;
        do {
          const auto t0 = std::chrono::steady_clock::now();
          const auto snap = b.snapshot();
          const auto levels = graph::bfs_levels(
              snap, static_cast<index_t>(
                        src % static_cast<std::uint64_t>(g.num_vertices())));
          benchmark::DoNotOptimize(levels.size());
          const auto t1 = std::chrono::steady_clock::now();
          per_reader[t].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
          src = src * 6364136223846793005ULL + 1442695040888963407ULL;
        } while (!done.load());
      });
    }
    for (const auto& batch : batches) b.ingest(batch);
    b.drain();
    done.store(true);
    for (auto& r : readers) r.join();
    for (auto& v : per_reader) {
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    }
    backpressure_events = b.stats().backpressure_events;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["queries"] = static_cast<double>(latencies_ms.size());
  state.counters["q_p50_ms"] = percentile_ms(latencies_ms, 0.50);
  state.counters["q_p99_ms"] = percentile_ms(latencies_ms, 0.99);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["max_pending_merges"] =
      static_cast<double>(kMaxPendingMerges);
  state.counters["backpressure_events"] =
      static_cast<double>(backpressure_events);
}
BENCHMARK(BM_ServeDegraded)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({1, 0})
    ->Args({4, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv, "BENCH_serve.json");
}
