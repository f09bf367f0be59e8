/// \file bench_stream.cpp
/// \brief PERF4: streaming adjacency maintenance. Measures sustained
///        batch-ingest throughput (edges/s) through
///        `stream::AdjacencyBuilder`'s compaction ladder and the merge
///        amplification it pays, against the naive serving strategy the
///        builder exists to beat: rebuilding the full adjacency from the
///        concatenated edge list after every batch.
///
/// Counters:
///   merge_amplification — maintenance entries written (per-batch deltas
///       + every ladder compaction + the snapshot merges) divided by the
///       final adjacency nnz: how many times the stream path touches an
///       entry that a one-shot build writes once.
///   final_nnz — size of the maintained array (sanity anchor).
///
/// `BM_StreamServe` and `BM_RebuildPerBatch` are the apples-to-apples
/// pair: both produce a queryable adjacency array after *every* batch.
/// The acceptance bar is stream ≤ rebuild for ≥ 8 batches; the committed
/// BENCH_stream.json records the margin.

#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "algebra/pairs.hpp"
#include "graph/incidence.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/merge.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/io.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace i2a;

constexpr int kScale = 12;          // 4096 vertices
constexpr index_t kEdgeFactor = 8;  // 32768 edges

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

/// Ingest the whole stream, snapshot once at the end — the pure
/// maintenance rate with queries amortized away.
void BM_StreamIngest(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  std::uint64_t written = 0;
  std::uint64_t final_nnz = 0;
  for (auto _ : state) {
    stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                           p);
    for (const auto& batch : batches) b.ingest(batch);
    const auto a = b.adjacency();
    benchmark::DoNotOptimize(a.nnz());
    written += b.stats().delta_entries + b.stats().merged_entries +
               static_cast<std::uint64_t>(a.nnz());
    final_nnz = static_cast<std::uint64_t>(a.nnz());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["merge_amplification"] =
      static_cast<double>(written) /
      (static_cast<double>(final_nnz) *
       static_cast<double>(state.iterations()));
  state.counters["final_nnz"] = static_cast<double>(final_nnz);
}
BENCHMARK(BM_StreamIngest)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

/// Ingest and snapshot after every batch — a query served per batch,
/// the maintained-array counterpart of BM_RebuildPerBatch.
void BM_StreamServe(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  std::uint64_t written = 0;
  std::uint64_t final_nnz = 0;
  for (auto _ : state) {
    stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                           p);
    std::uint64_t serve_writes = 0;
    for (const auto& batch : batches) {
      b.ingest(batch);
      const auto a = b.adjacency();
      benchmark::DoNotOptimize(a.nnz());
      serve_writes += static_cast<std::uint64_t>(a.nnz());
      final_nnz = static_cast<std::uint64_t>(a.nnz());
    }
    written +=
        b.stats().delta_entries + b.stats().merged_entries + serve_writes;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["merge_amplification"] =
      static_cast<double>(written) /
      (static_cast<double>(final_nnz) *
       static_cast<double>(state.iterations()));
  state.counters["final_nnz"] = static_cast<double>(final_nnz);
}
BENCHMARK(BM_StreamServe)->Arg(8)->Arg(32)->Arg(128);

/// The acknowledged-durability tax (DESIGN.md §12): the BM_StreamIngest
/// workload at 64 batches with the write-ahead log in each durability
/// mode. Arg 0 is the in-memory baseline (no WAL — the pre-durability
/// path, bit for bit), 1 = Durability::kNone (append to page cache,
/// never fsync), 2 = kAsync (fsync only on segment rotation and close),
/// 3 = kFsyncEachBatch (fsync before ingest returns: acknowledged ⇒
/// durable). The committed BENCH_stream.json records what each
/// acknowledgement level costs over the in-memory builder; wal_bytes is
/// the log volume written per run.
void BM_IngestDurable(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), 64);
  const algebra::PlusTimes<double> p;
  const auto mode = static_cast<int>(state.range(0));
  std::uint64_t wal_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir;
    stream::Options opts;
    if (mode != 0) {
      dir = "/tmp/i2a-bench-wal-XXXXXX";
      if (::mkdtemp(dir.data()) == nullptr) {
        state.SkipWithError("mkdtemp failed");
        break;
      }
      opts.wal_dir = dir;
      opts.durability = mode == 1   ? stream::Durability::kNone
                        : mode == 2 ? stream::Durability::kAsync
                                    : stream::Durability::kFsyncEachBatch;
    }
    state.ResumeTiming();
    {
      stream::AdjacencyBuilder<algebra::PlusTimes<double>> b(g.num_vertices(),
                                                             p, opts);
      for (const auto& batch : batches) b.ingest(batch);
      benchmark::DoNotOptimize(b.adjacency().nnz());
    }
    state.PauseTiming();
    if (mode != 0) {
      for (const auto& name : util::list_dir(dir)) {
        const std::string path = dir + "/" + name;
        struct stat st {};
        if (::stat(path.c_str(), &st) == 0) {
          wal_bytes += static_cast<std::uint64_t>(st.st_size);
        }
        util::remove_file(path);
      }
      ::rmdir(dir.c_str());
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
  state.counters["wal_bytes"] =
      static_cast<double>(wal_bytes) /
      std::max(1.0, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IngestDurable)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// The baseline the builder replaces: after every batch, rebuild the
/// adjacency from scratch over all edges seen so far (incidence assembly
/// + SpGEMM over the whole prefix, every time).
void BM_RebuildPerBatch(benchmark::State& state) {
  const auto g = bench::rmat_graph(kScale, kEdgeFactor, 42);
  const auto batches = split_batches(g.edges(), state.range(0));
  const algebra::PlusTimes<double> p;
  for (auto _ : state) {
    graph::Graph prefix(g.num_vertices());
    prefix.edges().reserve(g.edges().size());
    for (const auto& batch : batches) {
      for (const auto& e : batch) prefix.edges().push_back(e);
      const auto a = graph::build_adjacency(prefix, p);
      benchmark::DoNotOptimize(a.nnz());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edges().size()));
}
BENCHMARK(BM_RebuildPerBatch)->Arg(8)->Arg(32)->Arg(128);

/// The +.× adjacency runs of consecutive slices of one R-MAT stream,
/// slice k holding `weights[k]` batches of `batch_edges` edges. By
/// Theorem II.1 each is the run the ladder holds for those batches.
std::vector<sparse::Dcsr<double>> rmat_runs(
    int scale, index_t edge_factor, std::size_t batch_edges,
    std::initializer_list<std::size_t> weights) {
  util::ThreadPool pool(4);
  const auto g = bench::rmat_graph(scale, edge_factor, 42, &pool);
  const algebra::PlusTimes<double> p;
  std::vector<sparse::Dcsr<double>> runs;
  auto lo = g.edges().begin();
  for (const std::size_t w : weights) {
    const auto hi = lo + static_cast<std::ptrdiff_t>(w * batch_edges);
    graph::Graph part(g.num_vertices());
    part.edges().assign(lo, hi);
    runs.push_back(sparse::Dcsr<double>::compress(graph::build_adjacency(
        part, p, sparse::SpGemmAlgo::kAuto, &pool)));
    lo = hi;
  }
  return runs;
}

/// One ladder compaction alone (`merge_add_k`, `Dcsr` → `Dcsr`) on the
/// run shapes the e2e workloads merge:
///   scale:16 — two runs of 65,536 edges at n = 65,536 (about one entry
///       per row), merged serially, as a background merge runs on its
///       one pool worker;
///   scale:19 — bulk-load's last inline merge: 7 runs of 32, 16, 8, 4,
///       2, 1 and 1 batches of 131,072 edges at n = 2^19, on
///       ThreadPool(4).
/// bytes_per_entry is the merged run's heap (row ids, row pointer,
/// columns, values) per stored entry.
void BM_MergeRuns(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const auto runs = scale == 16
                        ? rmat_runs(16, 2, 65536, {1, 1})
                        : rmat_runs(19, 16, 131072, {32, 16, 8, 4, 2, 1, 1});
  std::vector<const sparse::Dcsr<double>*> ptrs;
  std::uint64_t in_nnz = 0;
  for (const auto& r : runs) {
    ptrs.push_back(&r);
    in_nnz += static_cast<std::uint64_t>(r.nnz());
  }
  util::ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  const auto add = [](const double& x, const double& y) { return x + y; };
  double out_nnz = 0;
  double out_bytes = 0;
  for (auto _ : state) {
    const auto merged = sparse::merge_add_k(ptrs, add, &pool);
    benchmark::DoNotOptimize(merged.nnz());
    out_nnz = static_cast<double>(merged.nnz());
    out_bytes = static_cast<double>(
        merged.row_ids().size() * sizeof(merged.row_ids()[0]) +
        merged.row_ptr().size() * sizeof(merged.row_ptr()[0]) +
        merged.cols().size() * sizeof(merged.cols()[0]) +
        merged.vals().size() * sizeof(merged.vals()[0]));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out_nnz));
  state.counters["in_nnz"] = static_cast<double>(in_nnz);
  state.counters["out_nnz"] = out_nnz;
  state.counters["bytes_per_entry"] = out_bytes / out_nnz;
}
BENCHMARK(BM_MergeRuns)
    ->ArgNames({"scale", "threads"})
    ->Args({16, 1})
    ->Args({19, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return i2a::bench::run_benchmarks_json(argc, argv, "BENCH_stream.json");
}
