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
/// pool, `detail::size_edges`) and write slots directly; Erdős–Rényi,
/// whose per-block yield is random, stages per-chunk edge slabs and
/// stitches them with one prefix sum. R-MAT's per-level quadrant choice
/// is branch-free, on integer cut-offs that reproduce the floating-point
/// comparisons exactly, and where the CPU has AVX2 it walks four blocks'
/// streams at once, one per 64-bit lane (see `rmat`).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
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

/// Throws std::invalid_argument when an edge on `n` (>= 1) vertices could
/// name an id above `Edge::kMaxVertex`. Each generator calls it before it
/// emits an edge, so no endpoint is narrowed out of range.
inline void require_storable_ids(index_t n, const char* who) {
  if (!storable_vertex(n - 1, n)) {
    throw std::invalid_argument(std::string(who) +
                                ": vertex ids above 2^31 - 1 do not fit "
                                "graph::Edge");
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

/// Size `edges` to `m` (>= 0) once, for an exact-count generator to
/// write every slot. A buffer of at least kPopulateMinBytes is reserved
/// first and its pages are faulted in on the pool
/// (`util::populate_pages`), so the value-initialization of `resize`, the
/// one serial pass left, writes resident pages: at R-MAT scale 19, edge
/// factor 16, its 128 MiB would take 32,769 page faults on the calling
/// thread.
/// Without a pool of two or more threads, or where the kernel lacks the
/// call, `resize` faults the pages in as before.
inline void size_edges(std::vector<Edge>& edges, index_t m,
                       util::ThreadPool* pool) {
  const auto count = static_cast<std::size_t>(m);
  if (const std::size_t bytes = count * sizeof(Edge);
      bytes >= kPopulateMinBytes) {
    edges.reserve(count);
    (void)util::populate_pages(edges.data(), bytes, pool);
  }
  edges.resize(count);
}

/// Exact-count generator driver: size `edges` to `m` (>= 0), then fill
/// slot e with `gen(rng, e)` where `rng` is edge e's block stream.
template <typename PerEdge>
void fill_edges_blocked(std::vector<Edge>& edges, index_t m,
                        std::uint64_t seed, util::ThreadPool* pool,
                        const PerEdge& gen) {
  size_edges(edges, m, pool);
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

/// What every block of one `rmat` walk shares.
struct RmatWalk {
  Edge* edges;
  index_t m;         // edges in the whole walk
  int levels;        // the scale: one draw per level
  std::uint64_t k1;  // the cut-offs, k1 <= k2 <= k3 (see `rmat`)
  std::uint64_t k2;
  std::uint64_t k3;
  std::uint64_t seed;
};

/// Walk the L = sizeof(W) / 8 consecutive blocks blk, ..., blk + L - 1
/// of `w`, block blk + j in lane j of the word type W: std::uint64_t, or
/// a vector of four. Each lane steps its own block's Xoshiro256** stream
/// (`stream_for_block`) and writes its own block's edges, so a lane's
/// bytes are the one-wide walk's. Edge i of every lane's block is drawn
/// in one pass: per level, one Xoshiro step per lane, k = next() >> 11,
/// and the level's quadrant bits shifted in most significant first,
///   src = 2 src + [k >= k2],
///   dst = 2 dst + ([k >= k1] ^ [k >= k2] ^ [k >= k3])
/// (the bit picks of `rmat`). The stream state and the cut-offs are
/// copied into locals, so the level loop touches no memory when they fit
/// in registers (see `rmat_walk1`). Only the last block may
/// be partial, and L > 1 walks whole blocks only. Nothing here passes or
/// returns a W, so a vector W never crosses a call (gcc's -Wpsabi).
template <typename W>
[[gnu::always_inline]] inline void rmat_walk(const RmatWalk& w,
                                             index_t blk) {
  constexpr int kLanes = sizeof(W) / sizeof(std::uint64_t);
  std::uint64_t words[4][kLanes] = {};
  for (int j = 0; j < kLanes; ++j) {
    const util::Xoshiro256 rng = stream_for_block(w.seed, blk + j);
    for (int i = 0; i < 4; ++i) words[i][j] = rng.state()[i];
  }
  W s0{}, s1{}, s2{}, s3{};
  std::memcpy(&s0, words[0], sizeof(W));
  std::memcpy(&s1, words[1], sizeof(W));
  std::memcpy(&s2, words[2], sizeof(W));
  std::memcpy(&s3, words[3], sizeof(W));
  const W k1 = W{} + w.k1;
  const W k2 = W{} + w.k2;
  const W k3 = W{} + w.k3;
  const int levels = w.levels;
  Edge* const out = w.edges + blk * kStreamBlock;
  const index_t count = std::min(kStreamBlock, w.m - blk * kStreamBlock);
  for (index_t e = 0; e < count; ++e) {
    // The bits are shifted in complemented, onto all ones, so one
    // complement per edge restores them and clears every bit above them.
    W src = ~W{};
    W dst = ~W{};
    for (int level = levels; level > 0; --level) {
      // Xoshiro256::next(), with x5 and x9 as shift-and-add: AVX2 has no
      // 64-bit lane multiply.
      const W x = (s1 << 2) + s1;
      const W rot = (x << 7) | (x >> 57);
      const W k = ((rot << 3) + rot) >> 11;
      const W t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      // k and every cut-off are at most 2^53, so k - c wraps past 2^63,
      // setting the top bit, exactly when k < c: (k - c) >> 63 is the
      // complement of [k >= c], and of three complements in dst's xor
      // two cancel.
      const W d2 = k - k2;
      src = (src << 1) | (d2 >> 63);
      dst = (dst << 1) | (((k - k1) ^ d2 ^ (k - k3)) >> 63);
    }
    src = ~src;
    dst = ~dst;
    std::uint64_t srcs[kLanes] = {};
    std::uint64_t dsts[kLanes] = {};
    std::memcpy(srcs, &src, sizeof(W));
    std::memcpy(dsts, &dst, sizeof(W));
    for (int j = 0; j < kLanes; ++j) {
      out[j * kStreamBlock + e] =
          Edge{static_cast<Edge::vertex_type>(srcs[j]),
               static_cast<Edge::vertex_type>(dsts[j]), 1.0};
    }
  }
}

/// Walk blocks [blk, end) one-wide. Out of line on purpose: inlined into
/// a chunk body, gcc 12 -O3 runs short of registers and spills the
/// stream state to the stack at every level.
[[gnu::noinline]] inline void rmat_walk1(const RmatWalk& w, index_t blk,
                                         index_t end) {
  for (; blk < end; ++blk) rmat_walk<std::uint64_t>(w, blk);
}

#if defined(__x86_64__) && defined(__GNUC__)
using U64x4 = std::uint64_t __attribute__((vector_size(32)));

/// Walk the groups of four blocks in [blk, end) four-wide, one AVX2
/// register per state word, and return the first block not walked (fewer
/// than four are left). Compiled for AVX2 whatever the build targets;
/// called only where the CPU has it. `flatten` inlines the template, so
/// the vector code is all AVX2 and no vector crosses a call.
[[gnu::target("avx2"), gnu::flatten]] inline index_t rmat_walk4(
    const RmatWalk& w, index_t blk, index_t end) {
  for (; end - blk >= 4; blk += 4) rmat_walk<U64x4>(w, blk);
  return blk;
}

/// The widest walk this CPU runs: 4 with AVX2, else 1. Asked once per
/// process.
inline int rmat_max_lanes() {
  static const int lanes = __builtin_cpu_supports("avx2") ? 4 : 1;
  return lanes;
}
#else
inline index_t rmat_walk4(const RmatWalk&, index_t blk, index_t) {
  return blk;
}
inline int rmat_max_lanes() { return 1; }
#endif

/// `rmat` at walk width `lanes`, 1 or 4: at 4, and where the CPU has
/// AVX2, each chunk's groups of four whole blocks are walked in lanes;
/// every other block (the blocks past the last whole group of four, all
/// of them without AVX2) is walked one-wide. Pool chunks hold whole
/// groups of four blocks, so a chunk boundary never splits a group: a
/// small generation on a pool (R-MAT scale 12, edge factor 8: 8 blocks
/// on 4 threads) still reaches the lanes. The edge list is the same at
/// either width and any chunking. `rmat` runs the widest; the tests run
/// both.
inline Graph rmat_at_width(int lanes, int scale, index_t edge_factor,
                           double a, double b, double c, std::uint64_t seed,
                           util::ThreadPool* pool) {
  if (scale < 0 || scale > 62) {
    throw std::invalid_argument("rmat: scale must be in [0, 62]");
  }
  if (edge_factor < 0) {
    throw std::invalid_argument("rmat: edge_factor must be >= 0");
  }
  const index_t n = index_t{1} << scale;
  const index_t m = checked_mul(n, edge_factor);
  if (m > 0) require_storable_ids(n, "rmat");
  const std::uint64_t k1 = unit_cutoff(a);
  const std::uint64_t k2 = std::max(k1, unit_cutoff(a + b));
  const std::uint64_t k3 = std::max(k2, unit_cutoff(a + b + c));
  Graph g(n);
  size_edges(g.edges(), m, pool);
  const RmatWalk walk{g.edges().data(), m, scale, k1, k2, k3, seed};
  const bool four_wide = lanes == 4 && rmat_max_lanes() == 4;
  const index_t whole_blocks = m / kStreamBlock;
  const index_t nblocks = (m + kStreamBlock - 1) / kStreamBlock;
  for_blocks(pool, (nblocks + 3) / 4, [&](index_t glo, index_t ghi) {
    const index_t blo = 4 * glo;
    const index_t bhi = std::min(nblocks, 4 * ghi);
    const index_t end4 = std::min(bhi, whole_blocks);
    const index_t rest = four_wide ? rmat_walk4(walk, blo, end4) : blo;
    rmat_walk1(walk, rest, bhi);
  });
  return g;
}

}  // namespace detail

/// R-MAT recursive-quadrant generator: n = 2^scale vertices,
/// n * edge_factor edges, quadrant probabilities (a, b, c, 1-a-b-c).
/// Duplicates and self-loops are kept — it generates a multigraph.
/// Throws std::invalid_argument unless 0 <= scale <= 62 and
/// edge_factor >= 0, and for scale > 31 with edges to emit (an endpoint
/// above `Edge::kMaxVertex`; `rmat(62, 0)` is 2^62 isolated vertices).
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
///
/// Where the CPU has AVX2 (x86-64, gcc or clang), each pool chunk walks
/// its groups of four consecutive whole blocks at once, each block's
/// stream in one lane of a 4 x 64-bit vector (`detail::rmat_walk`), and
/// its other blocks one-wide. Lanes are blocks, not levels or edges,
/// because a block's draws are one sequential stream. Each lane runs the
/// one-wide walk on its own block's stream, so the width changes no
/// byte.
inline Graph rmat(int scale, index_t edge_factor, double a, double b, double c,
                  std::uint64_t seed, util::ThreadPool* pool = nullptr) {
  return detail::rmat_at_width(4, scale, edge_factor, a, b, c, seed, pool);
}

/// Uniform multigraph: m independent uniform (src, dst) draws — parallel
/// edges and self-loops occur naturally. The validation sweep's workload.
/// Throws std::invalid_argument for n < 0, m < 0, or n > 2^31 with
/// m > 0 (an endpoint above `Edge::kMaxVertex`).
inline Graph random_multigraph(index_t n, index_t m, std::uint64_t seed,
                               util::ThreadPool* pool = nullptr) {
  if (n < 0) {
    throw std::invalid_argument("random_multigraph: n must be >= 0");
  }
  if (m < 0) {
    throw std::invalid_argument("random_multigraph: m must be >= 0");
  }
  Graph g(n);
  if (n <= 0) return g;
  if (m > 0) detail::require_storable_ids(n, "random_multigraph");
  detail::fill_edges_blocked(
      g.edges(), m, seed, pool, [&](util::Xoshiro256& rng, index_t) {
        const index_t src = rng.between(0, n - 1);
        const index_t dst = rng.between(0, n - 1);
        return Edge{static_cast<Edge::vertex_type>(src),
                    static_cast<Edge::vertex_type>(dst), 1.0};
      });
  return g;
}

/// Directed G(n, p) without self-loops, via geometric gap skipping
/// (util::sample_bernoulli_indices) so the cost is O(expected edges),
/// not O(n^2) coin flips. Cell blocks are sized for ~kStreamBlock
/// expected hits each — a pure function of (n, p), so the output stays
/// a pure function of the seed at any pool size — and per-chunk edge
/// slabs are stitched with one prefix sum, mirroring the SpGEMM engine.
/// Throws std::invalid_argument for n < 0, a NaN `p`, or n > 2^31 with
/// p > 0 (an endpoint above `Edge::kMaxVertex`).
inline Graph erdos_renyi(index_t n, double p, std::uint64_t seed,
                         util::ThreadPool* pool = nullptr) {
  if (n < 0) {
    throw std::invalid_argument("erdos_renyi: n must be >= 0");
  }
  if (std::isnan(p)) {
    throw std::invalid_argument("erdos_renyi: p must not be NaN");
  }
  Graph g(n);
  if (n <= 0 || p <= 0.0) return g;
  const index_t cells = checked_mul(n, n);
  detail::require_storable_ids(n, "erdos_renyi");
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
        if (i != j) {
          slab.push_back(Edge{static_cast<Edge::vertex_type>(i),
                              static_cast<Edge::vertex_type>(j), 1.0});
        }
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
/// std::invalid_argument for nl < 0, nr < 0 or deg < 0, or for
/// nl + nr > 2^31 with edges to emit (an endpoint above
/// `Edge::kMaxVertex`), and std::overflow_error when nl + nr overflows.
inline Graph random_bipartite(index_t nl, index_t nr, index_t deg,
                              std::uint64_t seed,
                              util::ThreadPool* pool = nullptr) {
  if (nl < 0 || nr < 0) {
    throw std::invalid_argument("random_bipartite: nl and nr must be >= 0");
  }
  if (deg < 0) {
    throw std::invalid_argument("random_bipartite: deg must be >= 0");
  }
  Graph g(checked_add(nl, nr));
  if (nl <= 0 || nr <= 0) return g;
  const index_t m = checked_mul(nl, deg);
  if (m > 0) {
    detail::require_storable_ids(g.num_vertices(), "random_bipartite");
  }
  detail::fill_edges_blocked(
      g.edges(), m, seed, pool, [&](util::Xoshiro256& rng, index_t) {
        const index_t src = rng.between(0, nl - 1);
        const index_t dst = nl + rng.between(0, nr - 1);
        return Edge{static_cast<Edge::vertex_type>(src),
                    static_cast<Edge::vertex_type>(dst), 1.0};
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
