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

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

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
#include "stream/shard.hpp"
#include "stream/sharded_builder.hpp"
#include "util/pages.hpp"
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

/// Every row of `snap` through the owner-routed `fold_row` equals the same
/// row of its own `materialize()`, byte for byte.
template <typename P>
void check_rows_match_materialize(const stream::PinnedSnapshot<P>& snap) {
  const auto dense = snap.materialize();
  auto scratch = snap.row_scratch();
  for (index_t r = 0; r < snap.num_vertices(); ++r) {
    std::vector<index_t> cols;
    std::vector<double> vals;
    snap.fold_row(r, scratch, [&](index_t c, const double& v) {
      cols.push_back(c);
      vals.push_back(v);
    });
    const auto dc = dense.row_cols(r);
    const auto dv = dense.row_vals(r);
    CHECK(cols == std::vector<index_t>(dc.begin(), dc.end()));
    CHECK(vals == std::vector<double>(dv.begin(), dv.end()));
  }
}

/// `fold_row` walks only shard_of(r)'s runs. At {1, 3, 4, 7} shards, on
/// a stream whose edges leave four vertices (0, n − 1 and two others, so
/// most rows are empty and some shards hold no runs at all), every row
/// of every pin equals that pin's `materialize()` row — for pins taken
/// right after each ingest, read again after later background merges
/// retired their runs, and for the pin after `drain()`.
template <typename P>
void run_owner_routed_fold_row(const P& p, stream::Weighting weighting,
                               util::ThreadPool* pool) {
  const index_t n = 40;
  const index_t sources[] = {0, n - 1, 5, 17};
  graph::Graph g(n);
  util::Xoshiro256 rng(0xF01Du);
  for (int i = 0; i < 240; ++i) {
    g.add_edge(sources[rng.next() % 4],
               static_cast<index_t>(rng.next() %
                                    static_cast<std::uint64_t>(n)),
               static_cast<double>(1 + rng.next() % 9));
  }
  stream::Options opts;
  opts.weighting = weighting;
  opts.pool = pool;
  opts.compaction = stream::Compaction::kBackground;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{4}, std::size_t{7}}) {
    stream::ShardedBuilder<P> b(n, shards, p, opts);
    std::vector<bool> owns_source(shards, false);
    for (const index_t v : sources) owns_source[b.shard_of(v)] = true;
    const auto empty_shards =
        std::count(owns_source.begin(), owns_source.end(), false);
    if (shards == 7) CHECK(empty_shards >= 3);
    const auto& edges = g.edges();
    std::vector<stream::PinnedSnapshot<P>> pins;
    std::vector<sparse::Csr<double>> oracles;
    graph::Graph prefix(n);
    for (std::size_t lo = 0; lo < edges.size(); lo += 13) {
      const std::size_t hi = std::min(edges.size(), lo + 13);
      b.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
      for (std::size_t i = lo; i < hi; ++i) {
        prefix.add_edge(edges[i].src, edges[i].dst, edges[i].weight);
      }
      pins.push_back(b.snapshot());
      oracles.push_back(rebuild(p, weighting, prefix));
      check_rows_match_materialize(pins.back());
    }
    b.drain();
    const auto settled = b.snapshot();
    check_rows_match_materialize(settled);
    CHECK(csr_bitwise_equal(settled.materialize(), oracles.back()));
    for (std::size_t i = 0; i < pins.size(); ++i) {
      check_rows_match_materialize(pins[i]);
      CHECK(csr_bitwise_equal(pins[i].materialize(), oracles[i]));
    }
  }
}

void test_owner_routed_fold_row() {
  util::ThreadPool pool(4);
  run_owner_routed_fold_row(algebra::PlusTimes<double>{},
                            stream::Weighting::kUnweighted, &pool);
  run_owner_routed_fold_row(algebra::MinPlus<double>{},
                            stream::Weighting::kWeighted, &pool);
}

/// `release_pages` drops exactly the whole pages inside its range: the
/// partial pages at both ends keep their bytes (on Linux the pages
/// inside read back as zero).
void test_release_pages_bounds() {
  constexpr std::size_t kPage = 4096;
  std::vector<std::uint64_t> buf(8 * kPage / sizeof(std::uint64_t), 0);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = 0x5a5a0000ULL + i;
  auto* const bytes = reinterpret_cast<unsigned char*>(buf.data());
  // The range starts 24 bytes into the buffer and ends 100 bytes past
  // a multiple of 4 KiB, so its end pages are partial and hold bytes
  // inside and outside it.
  const std::size_t first = 24;
  const std::size_t len = 5 * kPage + 100;
  util::release_pages(bytes + first, len);
#if defined(__linux__)
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(bytes + first);
  const std::uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (begin + len) & ~(page - 1);
#else
  const std::uintptr_t lo = 0;  // release_pages is a no-op
  const std::uintptr_t hi = 0;
#endif
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const auto at = reinterpret_cast<std::uintptr_t>(&buf[i]);
    if (at >= lo && at < hi) {
      CHECK_EQ(buf[i], std::uint64_t{0});
    } else {
      CHECK_EQ(buf[i], 0x5a5a0000ULL + i);
    }
  }
}

/// `populate_pages` changes no byte, the partial pages at both ends of
/// its range included, with no pool and with pools of 2 and 4 threads;
/// null or empty input and a missing or one-thread pool are no-ops that
/// return false. On Linux, once a call returns true, writing the range
/// takes the writer (almost) no page faults.
void test_populate_pages() {
  constexpr std::size_t kPage = 4096;
  std::vector<std::uint64_t> buf(8 * kPage / sizeof(std::uint64_t), 0);
  auto* const bytes = reinterpret_cast<unsigned char*>(buf.data());
  const std::size_t first = 24;  // partial end pages, as above
  const std::size_t len = 5 * kPage + 100;
  util::ThreadPool pool1(1), pool2(2), pool4(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool2, &pool4}) {
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = 0xa5a50000ULL + i;
    (void)util::populate_pages(bytes + first, len, pool);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      CHECK_EQ(buf[i], 0xa5a50000ULL + i);
    }
  }
  CHECK(!util::populate_pages(nullptr, 0, &pool4));
  CHECK(!util::populate_pages(nullptr, len, &pool4));
  CHECK(!util::populate_pages(bytes, 0, &pool4));
  CHECK(!util::populate_pages(bytes + first, len, nullptr));
  CHECK(!util::populate_pages(bytes + first, len, &pool1));
  CHECK_EQ(util::whole_pages(nullptr, len).bytes, std::size_t{0});
#if defined(__linux__)
  // A fresh mapping: without the call, each page faults on first write.
  const std::size_t map_bytes = 256 * util::page_bytes();
  void* const map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(map != MAP_FAILED);
  if (map == MAP_FAILED) return;
  auto* const out = static_cast<unsigned char*>(map);
  const bool populated = util::populate_pages(map, map_bytes, &pool4);
  if (populated) {
    // Read every page first, so a sanitizer's shadow of the range is
    // mapped before the measured writes. A page left unpopulated would
    // still fault there: the read maps it to the shared zero page, and
    // the write copies it.
    unsigned sum = 0;
    for (std::size_t i = 0; i < map_bytes; i += util::page_bytes()) {
      sum += out[i];
    }
    CHECK_EQ(sum, 0u);
    rusage before{};
    rusage after{};
    ::getrusage(RUSAGE_THREAD, &before);
    for (std::size_t i = 0; i < map_bytes; i += util::page_bytes()) {
      out[i] = 1;
    }
    ::getrusage(RUSAGE_THREAD, &after);
    CHECK(after.ru_minflt - before.ru_minflt <= 4);
  }
  // The population itself wrote nothing: only the loop's bytes are set.
  for (std::size_t i = 0; i < map_bytes; ++i) {
    const int want = populated && i % util::page_bytes() == 0 ? 1 : 0;
    CHECK_EQ(static_cast<int>(out[i]), want);
  }
  ::munmap(map, map_bytes);
#endif
}

/// Background-mode runs release their pages when their last reference
/// drops, never before: pins taken after every batch keep runs that
/// later merges replace, and each must still materialize to its
/// prefix's rebuild once the builder has drained. The largest runs
/// here hold ~40k entries, so their column and value arrays pass the
/// release floor (`ReleasingDelete::kMinBytes`) and the release runs.
void test_background_runs_release_pages() {
  const index_t n = 4096;
  const auto g = int_weighted(graph::gen::random_multigraph(n, 40000, 61), 62);
  const algebra::MinPlus<double> p;
  util::ThreadPool pool(4);
  stream::Options opts;
  opts.weighting = stream::Weighting::kWeighted;
  opts.pool = &pool;
  opts.compaction = stream::Compaction::kBackground;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    stream::ShardedBuilder<algebra::MinPlus<double>> b(n, shards, p, opts);
    const auto& edges = g.edges();
    std::vector<stream::PinnedSnapshot<algebra::MinPlus<double>>> pins;
    std::vector<std::size_t> ends;
    for (std::size_t lo = 0; lo < edges.size(); lo += 2500) {
      const std::size_t hi = std::min(edges.size(), lo + 2500);
      b.ingest(std::span<const graph::Edge>(edges.data() + lo, hi - lo));
      pins.push_back(b.snapshot());
      ends.push_back(hi);
    }
    b.drain();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      graph::Graph prefix(n);
      prefix.edges().assign(edges.begin(),
                            edges.begin() +
                                static_cast<std::ptrdiff_t>(ends[i]));
      CHECK(csr_bitwise_equal(pins[i].materialize(),
                              rebuild(p, opts.weighting, prefix)));
    }
    pins.clear();  // the last references to the replaced runs
    CHECK(csr_bitwise_equal(b.adjacency(), rebuild(p, opts.weighting, g)));
  }
}

}  // namespace

int main() {
  test_sharded_prefix_differential();
  test_empty_shards();
  test_power_law_keys();
  test_sharded_empty_batches_and_validation();
  test_owner_routed_fold_row();
  test_release_pages_bounds();
  test_populate_pages();
  test_background_runs_release_pages();
  return TEST_MAIN_RESULT();
}
