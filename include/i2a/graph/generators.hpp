#pragma once
/// \file graph/generators.hpp
/// \brief Random graph families for the sweep and the bench suites:
///        R-MAT (Graph500 flavor), uniform multigraphs, Erdős–Rényi with
///        geometric skip-sampling, and random bipartite graphs.
///
/// Parallel generation via per-block PRNG streams (PR 3). Every
/// generator partitions its work into fixed-size blocks and draws block
/// b from its own SplitMix-decorrelated Xoshiro stream, so the produced
/// edge list is a **pure function of the arguments** — identical whether
/// generation runs serially or on any pool size (blocks are independent;
/// chunk boundaries only decide who runs a block, never what it
/// contains). That makes end-to-end construction parallel from generator
/// to adjacency while keeping workloads reproducible. The exact-count
/// generators (R-MAT, multigraph, bipartite) size the edge buffer
/// exactly once up front (a large buffer's pages faulted in on the
/// pool) and write slots directly (`detail::fill_edges_blocked`);
/// Erdős–Rényi, whose per-block yield is random, stages per-chunk edge
/// slabs and stitches them with one prefix sum. R-MAT's per-level
/// quadrant choice is branch-free, on integer cut-offs that reproduce
/// the floating-point comparisons exactly (see `rmat`).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "util/pages.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace i2a::graph::gen {

/// Work-block granularity for the per-block streams: small enough to
/// load-balance chunks, large enough that stream setup (four SplitMix
/// steps) is noise.
inline constexpr index_t kStreamBlock = 4096;

/// The PRNG stream owned by block `block` of a generator seeded with
/// `seed`. The Xoshiro seeder expands its input through SplitMix64, so
/// distinct (seed, block) pairs yield decorrelated streams even for
/// consecutive seeds.
inline util::Xoshiro256 stream_for_block(std::uint64_t seed, index_t block) {
  return util::Xoshiro256(
      seed ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(block) + 1)));
}

namespace detail {

/// Run `body(block_lo, block_hi)` over a partition of [0, nblocks):
/// chunked on the pool when one is given, one call serially otherwise.
template <typename Body>
void for_blocks(util::ThreadPool* pool, index_t nblocks, const Body& body) {
  if (nblocks <= 0) return;
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(nblocks, body);
  } else {
    body(0, nblocks);
  }
}

/// Iterate the kStreamBlock-sized blocks of [0, m), chunked on the pool
/// when one is given: `body(rng, lo, hi)` receives block [lo, hi)'s own
/// stream. The shared scaffolding of every exact-count loop.
template <typename PerBlock>
void for_each_block_stream(util::ThreadPool* pool, std::uint64_t seed,
                           index_t m, const PerBlock& body) {
  const index_t nblocks = (m + kStreamBlock - 1) / kStreamBlock;
  for_blocks(pool, nblocks, [&](index_t blo, index_t bhi) {
    for (index_t blk = blo; blk < bhi; ++blk) {
      auto rng = stream_for_block(seed, blk);
      body(rng, blk * kStreamBlock, std::min(m, (blk + 1) * kStreamBlock));
    }
  });
}

/// The smallest edge buffer `fill_edges_blocked` faults in on the pool:
/// glibc's largest mmap threshold. An allocation this large is a fresh
/// mapping every time, whose every page faults on first write. A smaller
/// one may reuse resident heap pages, where the population only walks
/// the page tables (~50 µs per MiB on a 4-thread pool, 4-vCPU host:
/// ~4% of an R-MAT scale 12 generation).
inline constexpr std::size_t kPopulateMinBytes = std::size_t{32} << 20;

/// Exact-count generator driver: size `edges` to `m` (>= 0) once, then
/// fill slot e with `gen(rng, e)` where `rng` is edge e's block stream.
/// A buffer of at least kPopulateMinBytes is reserved first and its
/// pages are faulted in on the pool (`util::populate_pages`), so the
/// value-initialization of `resize`, the one serial pass left, writes
/// resident pages: at R-MAT scale 19, edge factor 16, its 192 MiB took
/// 49,153 page faults on the calling thread. Without a pool of two or
/// more threads, or where the kernel lacks the call, `resize` faults the
/// pages in as before.
template <typename PerEdge>
void fill_edges_blocked(std::vector<Edge>& edges, index_t m,
                        std::uint64_t seed, util::ThreadPool* pool,
                        const PerEdge& gen) {
  const auto count = static_cast<std::size_t>(m);
  if (const std::size_t bytes = count * sizeof(Edge);
      bytes >= kPopulateMinBytes) {
    edges.reserve(count);
    (void)util::populate_pages(edges.data(), bytes, pool);
  }
  edges.resize(count);
  for_each_block_stream(
      pool, seed, m, [&](util::Xoshiro256& rng, index_t lo, index_t hi) {
        for (index_t e = lo; e < hi; ++e) {
          edges[static_cast<std::size_t>(e)] = gen(rng, e);
        }
      });
}

/// The integer cut-off K(t) = ceil(t * 2^53), clamped to [0, 2^53] and 0
/// when t * 2^53 is NaN: for every k in [0, 2^53), k < K(t) holds exactly
/// when k * 2^-53 < t. Exact because t * 2^53 is a power-of-two scaling
/// (it rounds only on overflow to +inf, which the clamp absorbs), a
/// non-negative integer k is below a real x exactly when it is below
/// ceil(x), and ceil of a double below 2^53 converts to uint64 exactly.
inline std::uint64_t unit_cutoff(double t) {
  constexpr double kScale = 0x1.0p53;
  const double x = t * kScale;
  if (!(x > 0.0)) return 0;  // NaN or <= 0: no k is below it
  if (x >= kScale) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(x));
}

}  // namespace detail

/// R-MAT recursive-quadrant generator: n = 2^scale vertices,
/// n * edge_factor edges, quadrant probabilities (a, b, c, 1-a-b-c).
/// Duplicates and self-loops are kept — it generates a multigraph.
/// Throws std::invalid_argument unless 0 <= scale <= 62 and
/// edge_factor >= 0.
///
/// The walk is branch-free and exact. Each level draws k = next() >> 11
/// and picks the quadrant the chain
///   r < a: none; else r < a + b: dst; else r < a + b + c: src; else both
/// picks on r = unit() = k * 2^-53 (the chain is the test oracle,
/// tests/rmat_reference.hpp):
/// - r < t holds exactly when k < K(t) (see unit_cutoff), so the chain
///   runs on the integer cut-offs K(a), K(a + b), K(a + b + c);
/// - a test is reached only by a k at or above every earlier cut-off, so
///   replacing each cut-off by the maximum of it and the earlier ones
///   (k1 <= k2 <= k3) changes no outcome, for any a, b, c — non-monotone
///   sums and NaN included;
/// - on non-decreasing cut-offs the chain's quadrant is
///   q = [k >= k1] + [k >= k2] + [k >= k3]: src is q >= 2, i.e. k >= k2,
///   and dst is q odd.
/// So the edge list is the chain's, byte for byte, at any pool size.
inline Graph rmat(int scale, index_t edge_factor, double a, double b, double c,
                  std::uint64_t seed, util::ThreadPool* pool = nullptr) {
  if (scale < 0 || scale > 62) {
    throw std::invalid_argument("rmat: scale must be in [0, 62]");
  }
  if (edge_factor < 0) {
    throw std::invalid_argument("rmat: edge_factor must be >= 0");
  }
  const index_t n = index_t{1} << scale;
  const index_t m = checked_mul(n, edge_factor);
  const std::uint64_t k1 = detail::unit_cutoff(a);
  const std::uint64_t k2 = std::max(k1, detail::unit_cutoff(a + b));
  const std::uint64_t k3 = std::max(k2, detail::unit_cutoff(a + b + c));
  Graph g(n);
  detail::fill_edges_blocked(
      g.edges(), m, seed, pool, [&](util::Xoshiro256& rng, index_t) {
        index_t src = 0;
        index_t dst = 0;
        for (index_t bit = n >> 1; bit > 0; bit >>= 1) {
          const std::uint64_t k = rng.next() >> 11;
          const bool ge1 = k >= k1;
          const bool ge2 = k >= k2;
          const bool ge3 = k >= k3;
          src |= bit & -static_cast<index_t>(ge2);
          dst |= bit & -static_cast<index_t>(ge1 ^ ge2 ^ ge3);
        }
        return Edge{src, dst, 1.0};
      });
  return g;
}

/// Uniform multigraph: m independent uniform (src, dst) draws — parallel
/// edges and self-loops occur naturally. The validation sweep's workload.
/// Throws std::invalid_argument for m < 0.
inline Graph random_multigraph(index_t n, index_t m, std::uint64_t seed,
                               util::ThreadPool* pool = nullptr) {
  if (m < 0) {
    throw std::invalid_argument("random_multigraph: m must be >= 0");
  }
  Graph g(n);
  if (n <= 0) return g;
  detail::fill_edges_blocked(
      g.edges(), m, seed, pool, [&](util::Xoshiro256& rng, index_t) {
        const index_t src = rng.between(0, n - 1);
        const index_t dst = rng.between(0, n - 1);
        return Edge{src, dst, 1.0};
      });
  return g;
}

/// Directed G(n, p) without self-loops, via geometric gap skipping
/// (util::sample_bernoulli_indices) so the cost is O(expected edges),
/// not O(n^2) coin flips. Cell blocks are sized for ~kStreamBlock
/// expected hits each — a pure function of (n, p), so the output stays
/// a pure function of the seed at any pool size — and per-chunk edge
/// slabs are stitched with one prefix sum, mirroring the SpGEMM engine.
/// Throws std::invalid_argument for a NaN `p`.
inline Graph erdos_renyi(index_t n, double p, std::uint64_t seed,
                         util::ThreadPool* pool = nullptr) {
  if (std::isnan(p)) {
    throw std::invalid_argument("erdos_renyi: p must not be NaN");
  }
  Graph g(n);
  if (n <= 0 || p <= 0.0) return g;
  const index_t cells = checked_mul(n, n);
  const double want =
      static_cast<double>(kStreamBlock) / std::min(1.0, p);
  const index_t cells_per_block =
      want >= static_cast<double>(cells)
          ? cells
          : std::max<index_t>(static_cast<index_t>(want), 1);
  const index_t nblocks = (cells + cells_per_block - 1) / cells_per_block;

  const bool parallel = pool != nullptr && pool->size() > 1;
  const index_t nchunks = parallel ? pool->num_chunks(nblocks) : 1;
  std::vector<std::vector<Edge>> slabs(static_cast<std::size_t>(nchunks));
  auto body = [&](index_t chunk, index_t blo, index_t bhi) {
    auto& slab = slabs[static_cast<std::size_t>(chunk)];
    for (index_t blk = blo; blk < bhi; ++blk) {
      auto rng = stream_for_block(seed, blk);
      const index_t lo = blk * cells_per_block;
      const index_t hi = std::min(cells, lo + cells_per_block);
      util::sample_bernoulli_indices(rng, hi - lo, p, [&](index_t t) {
        const index_t cell = lo + t;
        const index_t i = cell / n;
        const index_t j = cell % n;
        if (i != j) slab.push_back(Edge{i, j, 1.0});
      });
    }
  };
  if (parallel) {
    pool->parallel_for_chunks(nblocks, body);
  } else {
    body(0, 0, nblocks);
  }

  // Stitch: chunks cover contiguous block ranges in order, so
  // concatenating slabs in chunk order is block order — the same edge
  // list a serial run produces.
  if (nchunks == 1) {
    g.edges() = std::move(slabs[0]);
    return g;
  }
  std::size_t total = 0;
  for (const auto& slab : slabs) total += slab.size();
  auto& edges = g.edges();
  edges.resize(total);
  std::size_t offset = 0;
  for (auto& slab : slabs) {
    std::copy(slab.begin(), slab.end(), edges.begin() + offset);
    offset += slab.size();
  }
  return g;
}

/// Bipartite multigraph: vertices [0, nl) on the left, [nl, nl+nr) on the
/// right, nl * deg uniform left→right edges. Throws
/// std::invalid_argument for deg < 0.
inline Graph random_bipartite(index_t nl, index_t nr, index_t deg,
                              std::uint64_t seed,
                              util::ThreadPool* pool = nullptr) {
  if (deg < 0) {
    throw std::invalid_argument("random_bipartite: deg must be >= 0");
  }
  Graph g(nl + nr);
  if (nl <= 0 || nr <= 0) return g;
  const index_t m = checked_mul(nl, deg);
  detail::fill_edges_blocked(
      g.edges(), m, seed, pool, [&](util::Xoshiro256& rng, index_t) {
        const index_t src = rng.between(0, nl - 1);
        const index_t dst = nl + rng.between(0, nr - 1);
        return Edge{src, dst, 1.0};
      });
  return g;
}

/// Overwrite every edge weight with a uniform draw from [lo, hi).
inline void randomize_weights(Graph& g, double lo, double hi,
                              std::uint64_t seed,
                              util::ThreadPool* pool = nullptr) {
  auto& edges = g.edges();
  detail::for_each_block_stream(
      pool, seed, static_cast<index_t>(edges.size()),
      [&](util::Xoshiro256& rng, index_t elo, index_t ehi) {
        for (index_t e = elo; e < ehi; ++e) {
          edges[static_cast<std::size_t>(e)].weight = rng.uniform(lo, hi);
        }
      });
}

}  // namespace i2a::graph::gen
