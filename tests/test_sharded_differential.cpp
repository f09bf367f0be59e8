/// \file test_sharded_differential.cpp
/// \brief Sharding must be invisible in the bytes: for EVERY batch
///        prefix, the `ShardedBuilder` snapshot materializes
///        byte-identical to the single-builder snapshot of the same
///        prefix and to the from-scratch rebuild — across shard counts
///        (1 included: sharded-of-one is the degenerate control), pool
///        sizes, both compaction modes, and both weightings. Includes
///        the distributions sharding gets wrong when the hash is bad:
///        every edge from one source (all shards but one empty) and a
///        power-law source skew (a few hubs own most edges).
///
/// Integer-valued weights keep all folds exact in FP (repo convention),
/// so "byte-identical" is a meaningful bar, not a tolerance in disguise.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/generators.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "stream/sharded_builder.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

using i2a::test::csr_bitwise_equal;

graph::Graph int_weighted(graph::Graph g, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (auto& e : g.edges()) {
    e.weight = static_cast<double>(1 + rng.next() % 9);
  }
  return g;
}

/// Hub-heavy workload: source vertices drawn from a power-law-ish
/// distribution (u⁴ concentrates mass near vertex 0), destinations
/// uniform — the skew that starves shards under a structured hash.
graph::Graph power_law_graph(index_t n, index_t m, std::uint64_t seed) {
  graph::Graph g(n);
  util::Xoshiro256 rng(seed);
  const auto fn = static_cast<double>(n);
  for (index_t i = 0; i < m; ++i) {
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
    const auto src = static_cast<index_t>(fn * u * u * u * u);
    const auto dst = static_cast<index_t>(rng.next() %
                                          static_cast<std::uint64_t>(n));
    g.add_edge(std::min(src, n - 1), dst,
               static_cast<double>(1 + rng.next() % 9));
  }
  return g;
}

template <typename P>
sparse::Csr<double> rebuild(const P& p, stream::Weighting weighting,
                            const graph::Graph& g) {
  return weighting == stream::Weighting::kWeighted
             ? graph::adjacency_array(
                   p, graph::weighted_incidence_arrays(g, p))
             : graph::adjacency_array(p, graph::incidence_arrays(g, p));
}

/// Feed the same batch sequence to a ShardedBuilder and a single
/// AdjacencyBuilder; after every batch, the two snapshots and the
/// from-scratch rebuild must agree byte-for-byte, and the sharded epoch
/// must stay in lockstep with the single builder's.
template <typename P>
void run_prefix_differential(const P& p, stream::Weighting weighting,
                             const graph::Graph& g, std::size_t batch,
                             std::size_t shards, util::ThreadPool* pool,
                             stream::Compaction compaction) {
  stream::Options opts;
  opts.weighting = weighting;
  opts.pool = pool;
  opts.compaction = compaction;
  stream::ShardedBuilder<P> sharded(g.num_vertices(), shards, p, opts);
  stream::AdjacencyBuilder<P> single(g.num_vertices(), p, opts);
  const auto& edges = g.edges();
  graph::Graph prefix(g.num_vertices());
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t hi = std::min(edges.size(), lo + batch);
    const std::span<const graph::Edge> slice(edges.data() + lo, hi - lo);
    sharded.ingest(slice);
    single.ingest(slice);
    for (std::size_t i = lo; i < hi; ++i) {
      prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
    }
    const auto oracle = rebuild(p, weighting, prefix);
    const auto spin = sharded.snapshot();
    CHECK_EQ(spin.batches(), single.snapshot().batches());
    CHECK(csr_bitwise_equal(spin.materialize(), oracle));
    CHECK(csr_bitwise_equal(single.snapshot().materialize(), oracle));
  }
  sharded.drain();
  single.drain();
  CHECK(csr_bitwise_equal(sharded.adjacency(), single.adjacency()));
  CHECK_EQ(sharded.stats().edges, edges.size());
  CHECK_EQ(sharded.stats().batches, single.stats().batches);
}

void test_sharded_prefix_differential() {
  const auto g =
      int_weighted(graph::gen::random_multigraph(32, 400, 909), 0xABCDu);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);  // serial
  pools.push_back(std::make_unique<util::ThreadPool>(4));
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{4}}) {
    for (const auto& pool : pools) {
      for (const auto mode :
           {stream::Compaction::kInline, stream::Compaction::kBackground}) {
        run_prefix_differential(algebra::PlusTimes<double>{},
                                stream::Weighting::kUnweighted, g, 37, shards,
                                pool.get(), mode);
        run_prefix_differential(algebra::MinPlus<double>{},
                                stream::Weighting::kWeighted, g, 37, shards,
                                pool.get(), mode);
      }
    }
  }
}

void test_empty_shards() {
  // Every edge leaves vertex 5: with 4 shards, three ladders stay empty
  // for the whole run. The fused snapshot must not care.
  const index_t n = 16;
  graph::Graph g(n);
  util::Xoshiro256 rng(77);
  for (int i = 0; i < 60; ++i) {
    g.add_edge(5, static_cast<index_t>(rng.next() %
                                       static_cast<std::uint64_t>(n)),
               static_cast<double>(1 + rng.next() % 9));
  }
  util::ThreadPool pool(4);
  run_prefix_differential(algebra::MinPlus<double>{},
                          stream::Weighting::kWeighted, g, 7, 4, &pool,
                          stream::Compaction::kBackground);
}

void test_power_law_keys() {
  const auto g = power_law_graph(64, 500, 0xBEEFu);
  util::ThreadPool pool(4);
  for (const auto mode :
       {stream::Compaction::kInline, stream::Compaction::kBackground}) {
    run_prefix_differential(algebra::PlusTimes<double>{},
                            stream::Weighting::kUnweighted, g, 41, 4, &pool,
                            mode);
  }
}

void test_sharded_empty_batches_and_validation() {
  const algebra::PlusTimes<double> p;
  bool threw = false;
  try {
    stream::ShardedBuilder<algebra::PlusTimes<double>> zero(8, 0, p);
    (void)zero;
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);

  stream::ShardedBuilder<algebra::PlusTimes<double>> b(8, 4, p);
  b.ingest(std::vector<graph::Edge>{});  // epochs advance in lockstep
  CHECK_EQ(b.stats().batches, 1u);
  CHECK_EQ(b.adjacency().nnz(), 0);
  b.ingest(std::vector<graph::Edge>{{0, 1, 1.0}, {7, 3, 1.0}});
  const auto before = b.adjacency();
  const auto stats_before = b.stats();
  // One bad endpoint rejects the whole batch on every shard: no torn
  // epochs, no partial ingest.
  threw = false;
  try {
    b.ingest(std::vector<graph::Edge>{{1, 2, 1.0}, {8, 0, 1.0}});
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(csr_bitwise_equal(b.adjacency(), before));
  CHECK_EQ(b.stats().batches, stats_before.batches);
  CHECK_EQ(b.stats().edges, stats_before.edges);
  // shard_of covers [0, shards) and is stable per vertex.
  for (index_t v = 0; v < 8; ++v) {
    CHECK(b.shard_of(v) < b.num_shards());
    CHECK_EQ(b.shard_of(v), b.shard_of(v));
  }
}

}  // namespace

int main() {
  test_sharded_prefix_differential();
  test_empty_shards();
  test_power_law_keys();
  test_sharded_empty_batches_and_validation();
  return TEST_MAIN_RESULT();
}
