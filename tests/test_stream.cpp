/// \file test_stream.cpp
/// \brief Streaming differential suite: AdjacencyBuilder's maintained
///        array must be *byte-identical* to the oracle — concatenate all
///        batches and rebuild from scratch with `build_adjacency` /
///        `adjacency_array`, and with the forced-kGustavson engine that
///        kAuto's per-edge fold must match — across batch sizes
///        {1, 7, 1024}, pool sizes {serial, 1, 4, 8}, and the min.+ /
///        +.* / max.min algebras, plus builder-specific edge cases
///        (empty batches, endpoint validation, ladder shape, prefix
///        snapshots).
///
/// Weighted workloads draw integer weights so the +.* fold stays exact
/// in FP — any fold-order divergence shows up as a byte diff instead of
/// hiding inside reassociation noise; min/max folds are exact on any
/// doubles.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

stream::Options ladder_opts(stream::Weighting weighting,
                            util::ThreadPool* pool = nullptr) {
  stream::Options o;
  o.weighting = weighting;
  o.pool = pool;
  return o;
}

/// Shared stream workload: a dense-ish multigraph (parallel edges and
/// self-loops included — the paper's hard cases) with small-integer
/// weights.
graph::Graph stream_graph(index_t n, index_t m, std::uint64_t seed) {
  auto g = graph::gen::random_multigraph(n, m, seed);
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

/// The from-scratch rebuild of a stream's edges, twice: through the
/// entry point the builder stages with (kAuto, which folds incidence
/// products per edge) and through the forced-kGustavson engine, so the
/// builder is never checked only against the code it runs itself.
template <typename T>
struct Oracles {
  sparse::Csr<T> rebuild;
  sparse::Csr<T> engine;
};

template <typename P>
Oracles<typename P::value_type> stream_oracles(const P& p,
                                               stream::Weighting weighting,
                                               const graph::Graph& g) {
  const auto inc = weighting == stream::Weighting::kWeighted
                       ? graph::weighted_incidence_arrays(g, p)
                       : graph::incidence_arrays(g, p);
  return {graph::adjacency_array(p, inc),
          graph::adjacency_array(p, inc, sparse::SpGemmAlgo::kGustavson)};
}

/// Feed `g`'s edge list to a builder in `batch_size` slices and check the
/// final snapshot byte-equals both oracles.
template <typename P>
void run_differential(const P& p, stream::Weighting weighting,
                      const graph::Graph& g, index_t batch_size,
                      util::ThreadPool* pool,
                      const Oracles<typename P::value_type>& oracles) {
  stream::AdjacencyBuilder<P> builder(g.num_vertices(), p,
                                      ladder_opts(weighting, pool));
  const auto& edges = g.edges();
  for (std::size_t lo = 0; lo < edges.size();
       lo += static_cast<std::size_t>(batch_size)) {
    const std::size_t hi =
        std::min(edges.size(), lo + static_cast<std::size_t>(batch_size));
    builder.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
  }
  CHECK_EQ(builder.stats().edges, edges.size());
  const auto snap = builder.adjacency();
  CHECK(csr_bitwise_equal(snap, oracles.rebuild));
  CHECK(csr_bitwise_equal(snap, oracles.engine));
  // The ladder never holds more than log2(batches) + 1 live runs.
  const auto batches = static_cast<double>(builder.stats().batches);
  CHECK(builder.num_levels() <=
        static_cast<index_t>(std::log2(batches > 0 ? batches : 1)) + 1);
}

void test_streaming_differential() {
  const index_t n = 48;
  const index_t m = 1500;
  const auto g = stream_graph(n, m, 2026);

  // Serial oracles, built once per algebra with the batch path's exact
  // construction entry points and with the forced-kGustavson engine.
  const algebra::PlusTimes<double> plus_times;
  const algebra::MinPlus<double> min_plus;
  const algebra::MaxMin<double> max_min;
  const auto oracle_pt =
      stream_oracles(plus_times, stream::Weighting::kUnweighted, g);
  const auto oracle_mp =
      stream_oracles(min_plus, stream::Weighting::kWeighted, g);
  const auto oracle_mm =
      stream_oracles(max_min, stream::Weighting::kWeighted, g);
  CHECK(csr_bitwise_equal(oracle_pt.rebuild,
                          graph::build_adjacency(g, plus_times)));

  const index_t batch_sizes[] = {1, 7, 1024};
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);  // serial
  for (const std::size_t t : {1u, 4u, 8u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  for (const index_t bs : batch_sizes) {
    for (const auto& pool : pools) {
      run_differential(plus_times, stream::Weighting::kUnweighted, g, bs,
                       pool.get(), oracle_pt);
      run_differential(min_plus, stream::Weighting::kWeighted, g, bs,
                       pool.get(), oracle_mp);
      run_differential(max_min, stream::Weighting::kWeighted, g, bs,
                       pool.get(), oracle_mm);
    }
  }
}

void test_prefix_snapshots() {
  // A snapshot after every batch must equal the rebuild of exactly the
  // edges ingested so far — the "maintained, not rebuilt" contract is
  // about *every* prefix, not just the final state.
  const auto g = stream_graph(32, 400, 4242);
  const algebra::MinPlus<double> p;
  util::ThreadPool pool(4);
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      g.num_vertices(), p, ladder_opts(stream::Weighting::kWeighted, &pool));
  const auto& edges = g.edges();
  const std::size_t batch = 37;
  graph::Graph prefix(g.num_vertices());
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    builder.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
    for (std::size_t i = lo; i < hi; ++i) {
      prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
    }
    const auto oracle = graph::adjacency_array(
        p, graph::weighted_incidence_arrays(prefix, p));
    CHECK(csr_bitwise_equal(builder.adjacency(), oracle));
  }
}

void test_empty_and_tiny_batches() {
  const algebra::PlusTimes<double> p;
  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(5, p);
  // Snapshot before any ingest: the all-n empty adjacency.
  const auto empty = builder.adjacency();
  CHECK_EQ(empty.nrows(), 5);
  CHECK_EQ(empty.ncols(), 5);
  CHECK_EQ(empty.nnz(), 0);
  // Empty batches are ⊕-identities: counted, but no ladder churn.
  builder.ingest(std::vector<graph::Edge>{});
  CHECK_EQ(builder.stats().batches, 1u);
  CHECK_EQ(builder.num_levels(), 0);
  builder.ingest(std::vector<graph::Edge>{{0, 1, 2.0}});
  builder.ingest(std::vector<graph::Edge>{});
  builder.ingest(std::vector<graph::Edge>{{1, 2, 3.0}, {0, 1, 1.0}});
  graph::Graph all(5);
  all.add_edge(0, 1, 2.0);
  all.add_edge(1, 2, 3.0);
  all.add_edge(0, 1, 1.0);
  CHECK(csr_bitwise_equal(builder.adjacency(), graph::build_adjacency(all, p)));
  CHECK_EQ(builder.stats().edges, 3u);
}

void test_ingest_validation() {
  const algebra::PlusTimes<double> p;
  stream::AdjacencyBuilder<algebra::PlusTimes<double>> builder(3, p);
  builder.ingest(std::vector<graph::Edge>{{0, 2, 1.0}});
  const auto before = builder.adjacency();
  const auto stats_before = builder.stats();
  // A batch with any out-of-range endpoint is rejected whole: no state
  // change, no partial ingest.
  for (const auto& bad : {graph::Edge{0, 3, 1.0}, graph::Edge{-1, 0, 1.0},
                          graph::Edge{3, 0, 1.0}, graph::Edge{0, -1, 1.0}}) {
    bool threw = false;
    try {
      builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}, bad});
    } catch (const std::out_of_range&) {
      threw = true;
    }
    CHECK(threw);
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), before));
  CHECK_EQ(builder.stats().batches, stats_before.batches);
  CHECK_EQ(builder.stats().edges, stats_before.edges);
}

void test_stats_untouched_when_merge_throws() {
  // An operator pair whose ⊕ throws (supported at the merge layer) must
  // not leave stats claiming a batch the ladder never received.
  struct Boom {};
  struct ThrowingPlusTimes {
    using value_type = double;
    static constexpr std::string_view name() { return "+.* (throwing)"; }
    double zero() const { return 0.0; }
    double one() const { return 1.0; }
    double add(double, double) const { throw Boom{}; }
    double mul(double a, double b) const { return a * b; }
  };
  stream::AdjacencyBuilder<ThrowingPlusTimes> builder(3, ThrowingPlusTimes{});
  // Batch 1 lands at level 0 without ⊕ ever firing (distinct edges, no
  // compaction).
  builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  CHECK_EQ(builder.stats().batches, 1u);
  // Batch 2 triggers the level-0 carry, whose merge folds (0,1) with
  // (0,1) and throws.
  bool threw = false;
  try {
    builder.ingest(std::vector<graph::Edge>{{0, 1, 1.0}});
  } catch (const Boom&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(builder.stats().batches, 1u);
  CHECK_EQ(builder.stats().edges, 1u);
  CHECK_EQ(builder.stats().compactions, 0u);
}

void test_self_loops_and_parallel_edges_stream() {
  // The theorem's hard cases arriving incrementally: parallel edges
  // split across batches must still fold to one entry, and a self-loop
  // must land on the diagonal.
  const algebra::MinPlus<double> p;
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      4, p, ladder_opts(stream::Weighting::kWeighted));
  builder.ingest(std::vector<graph::Edge>{{0, 1, 5.0}, {2, 2, 1.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 3.0}});
  builder.ingest(std::vector<graph::Edge>{{0, 1, 8.0}});
  const auto a = builder.adjacency();
  CHECK_EQ(a.nnz(), 2);
  CHECK_EQ(a.at(0, 1, -1.0), 3.0);  // min over the three parallel edges
  CHECK_EQ(a.at(2, 2, -1.0), 1.0);  // self-loop on the diagonal
}

void test_concurrent_ingest_snapshot() {
  // The builder is thread-compatible: any thread may call it when a
  // mutex orders the handoff (the header contract). One writer ingests,
  // two readers snapshot under the same mutex, and a noise thread
  // drives the shared pool concurrently with the builder's own pool
  // use. Under the TSan CI leg this pins that external serialization
  // plus the pool's internal synchronization are sufficient
  // happens-before for cross-thread builder use — every snapshot must
  // still byte-equal the prefix oracle for its batch count.
  const auto g = stream_graph(32, 600, 7171);
  const algebra::MinPlus<double> p;
  const std::size_t batch = 15;
  const auto& edges = g.edges();

  // Prefix oracles, index k = number of batches ingested.
  std::vector<sparse::Csr<double>> oracles;
  {
    graph::Graph prefix(g.num_vertices());
    oracles.push_back(graph::adjacency_array(
        p, graph::weighted_incidence_arrays(prefix, p)));
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      const std::size_t hi = std::min(edges.size(), lo + batch);
      for (std::size_t i = lo; i < hi; ++i) {
        prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
      }
      oracles.push_back(graph::adjacency_array(
          p, graph::weighted_incidence_arrays(prefix, p)));
    }
  }

  util::ThreadPool pool(4);
  stream::AdjacencyBuilder<algebra::MinPlus<double>> builder(
      g.num_vertices(), p, ladder_opts(stream::Weighting::kWeighted, &pool));
  std::mutex mu;            // orders every builder call
  std::size_t batches_done = 0;  // guarded by mu
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      const std::size_t hi = std::min(edges.size(), lo + batch);
      std::lock_guard<std::mutex> lock(mu);
      builder.ingest(
          std::span<const graph::Edge>(edges.data() + lo, hi - lo));
      ++batches_done;
    }
    done.store(true);
  });

  struct Observed {
    std::size_t k;
    sparse::Csr<double> snap;
  };
  std::vector<std::vector<Observed>> observed(2);
  std::vector<std::thread> readers;
  readers.reserve(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    readers.emplace_back([&, t] {
      do {
        Observed o;
        {
          std::lock_guard<std::mutex> lock(mu);
          o.k = batches_done;
          o.snap = builder.adjacency();
        }
        observed[t].push_back(std::move(o));
      } while (!done.load());
    });
  }
  std::thread noise([&] {  // independent pool traffic, no builder access
    while (!done.load()) {
      std::atomic<index_t> sum{0};
      pool.parallel_for(256, [&](index_t lo, index_t hi) {
        sum.fetch_add(hi - lo);
      });
      if (sum.load() != 256) std::abort();  // CHECK is main-thread-only
    }
  });
  writer.join();
  for (auto& r : readers) r.join();
  noise.join();

  for (const auto& per_reader : observed) {
    CHECK(!per_reader.empty());
    for (const auto& o : per_reader) {
      CHECK(o.k < oracles.size());
      CHECK(csr_bitwise_equal(o.snap, oracles[o.k]));
    }
  }
  CHECK(csr_bitwise_equal(builder.adjacency(), oracles.back()));
}

}  // namespace

int main() {
  test_streaming_differential();
  test_prefix_snapshots();
  test_empty_and_tiny_batches();
  test_ingest_validation();
  test_stats_untouched_when_merge_throws();
  test_self_loops_and_parallel_edges_stream();
  test_concurrent_ingest_snapshot();
  return TEST_MAIN_RESULT();
}
