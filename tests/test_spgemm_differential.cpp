/// \file test_spgemm_differential.cpp
/// \brief Differential SpGEMM suite: every sparse kernel (Gustavson,
///        heap, auto) must be *exactly* equal to the dense full-semantics
///        baseline, for all seven Table I operator pairs, serially and
///        under pool sizes {1, 4}, across randomized shapes including
///        empty matrices, empty rows, 1×1, hyper-sparse, both sides of
///        kAuto's 2^15-column switch and a dense output. Incidence-shaped
///        AᵀB operands (one entry per row) additionally pin kAuto's
///        per-row fold to forced kGustavson bit for bit, real values
///        included, and near-incidence operands to the engine.
///        Generated incidence cases (seed from I2A_BUILD_SEED, printed)
///        pin real-valued +.× kAuto to forced kGustavson, or, where the
///        output is too wide for its dense accumulator, to the
///        stable-sort reference build of the ⊗-terms, on pools
///        {none, 1, 2, 4, 8}.
///
/// Exactness is achievable because inputs are integer-valued doubles in
/// [1, 8]: every ⊗ product and ⊕ fold of the seven pairs is then exact
/// in double regardless of association order, so a single bit of
/// difference between a kernel and the baseline is a real bug, not
/// round-off.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/pairs.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "csr_reference.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

util::ThreadPool* g_pool1 = nullptr;
util::ThreadPool* g_pool4 = nullptr;

/// Random CSR with integer values drawn from {1, ..., 8} (all inside
/// every Table I carrier, so conformance — and hence pattern equality
/// with the dense baseline — is guaranteed).
sparse::Csr<double> random_int_csr(index_t nr, index_t nc, int nnz,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  if (nr > 0 && nc > 0) {
    for (int k = 0; k < nnz; ++k) {
      coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
               static_cast<double>(rng.between(1, 8)));
    }
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

bool exact_eq(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ptr() == b.row_ptr() && a.cols() == b.cols() &&
         a.vals() == b.vals();
}

constexpr sparse::SpGemmAlgo kAlgos[] = {sparse::SpGemmAlgo::kGustavson,
                                         sparse::SpGemmAlgo::kHeap,
                                         sparse::SpGemmAlgo::kAuto};

template <typename P>
void differential_case(const P& p, index_t m, index_t inner, index_t n,
                       int nnz_a, int nnz_b, std::uint64_t seed) {
  const auto a = random_int_csr(m, inner, nnz_a, seed);
  const auto b = random_int_csr(inner, n, nnz_b, seed + 1000);
  const auto ref = sparse::multiply_full_semantics(p, a, b);
  for (const auto algo : kAlgos) {
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo), ref));
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo, g_pool1), ref));
    CHECK(exact_eq(sparse::spgemm(p, a, b, algo, g_pool4), ref));
  }

  // AᵀB rides the same engine on the transposed operand; pin it to the
  // baseline on the explicitly transposed operand.
  const auto tall = random_int_csr(inner, m, nnz_a, seed + 2000);
  const auto fused_ref =
      sparse::multiply_full_semantics(p, sparse::transpose(tall), b);
  for (const auto algo : kAlgos) {
    CHECK(exact_eq(sparse::spgemm_at_b(p, tall, b, algo), fused_ref));
    CHECK(exact_eq(sparse::spgemm_at_b(p, tall, b, algo, g_pool4), fused_ref));
  }
}

/// What an incidence-shaped case stores per row: exactly one entry (the
/// fold's shape), or one row perturbed to hold 0 or 2 entries, which
/// must fall back to the engine.
enum class RowShape { kIncidence, kOneEmptyRow, kOneDoubleRow };

/// An m × n operand with one entry per row at `cols[e]`, real values in
/// [0.5, 8) (or integers in [1, 8] when `integral`), reshaped per `shape`
/// at row m / 2.
sparse::Csr<double> singleton_rows(index_t n, const std::vector<index_t>& cols,
                                   bool integral, RowShape shape,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto m = static_cast<index_t>(cols.size());
  const auto draw = [&] {
    return integral ? static_cast<double>(rng.between(1, 8))
                    : rng.uniform(0.5, 8.0);
  };
  sparse::Coo<double> coo(m, n);
  for (index_t e = 0; e < m; ++e) {
    const index_t c = cols[static_cast<std::size_t>(e)];
    if (e == m / 2 && shape == RowShape::kOneEmptyRow) continue;
    coo.push(e, c, draw());
    if (e == m / 2 && shape == RowShape::kOneDoubleRow) {
      coo.push(e, (c + 1) % n, draw());
    }
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

/// Incidence-shaped AᵀB: kAuto folds one ⊗-term per row in increasing row
/// order, which must be bitwise equal to forced kGustavson on every pair
/// and value kind, and equal to kHeap wherever ⊕ is exactly associative
/// (`exact_add`, or integer values). Near-incidence operands must give
/// exactly the engine's kAuto bytes. Every pool size gives the same bytes.
template <typename P>
void incidence_case(const P& p, bool exact_add, index_t n_src, index_t n_dst,
                    index_t m, index_t endpoint_range, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<index_t> src(static_cast<std::size_t>(m));
  std::vector<index_t> dst(static_cast<std::size_t>(m));
  for (index_t e = 0; e < m; ++e) {
    // endpoint_range < n squeezes the edges onto few vertices: heavy
    // parallel edges; a 0 range draws self-loops only.
    if (endpoint_range == 0) {
      src[static_cast<std::size_t>(e)] = dst[static_cast<std::size_t>(e)] =
          rng.between(0, std::min(n_src, n_dst) - 1);
      continue;
    }
    src[static_cast<std::size_t>(e)] =
        rng.between(0, std::min(n_src, endpoint_range) - 1);
    dst[static_cast<std::size_t>(e)] =
        rng.between(0, std::min(n_dst, endpoint_range) - 1);
  }
  util::ThreadPool* const pools[] = {nullptr, g_pool1, g_pool4};
  for (const bool integral : {false, true}) {
    for (const auto shape : {RowShape::kIncidence, RowShape::kOneEmptyRow,
                             RowShape::kOneDoubleRow}) {
      if (m == 0 && shape != RowShape::kIncidence) continue;
      // The empty row perturbs A, the doubled row B: each operand's
      // shape check must route to the engine on its own.
      const auto a = singleton_rows(
          n_src, src, integral,
          shape == RowShape::kOneEmptyRow ? shape : RowShape::kIncidence,
          seed + 1);
      const auto b = singleton_rows(
          n_dst, dst, integral,
          shape == RowShape::kOneDoubleRow ? shape : RowShape::kIncidence,
          seed + 2);
      const auto gustavson =
          sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kGustavson);
      const auto heap =
          sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kHeap);
      const auto engine_auto = sparse::spgemm(
          p, sparse::transpose(a), b, sparse::SpGemmAlgo::kAuto);
      for (util::ThreadPool* pool : pools) {
        const auto c =
            sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kAuto, pool);
        if (shape == RowShape::kIncidence) {
          CHECK(exact_eq(c, gustavson));
          if (exact_add || integral) CHECK(exact_eq(c, heap));
        } else {
          CHECK(exact_eq(c, engine_auto));
        }
      }
    }
  }
}

template <typename P>
void run_incidence(const P& p, bool exact_add, std::uint64_t seed) {
  const index_t wide = (index_t{1} << 15) + 1;
  incidence_case(p, exact_add, 0, 0, 0, 1, seed);          // no vertices
  incidence_case(p, exact_add, 7, 7, 0, 7, seed + 1);      // empty edge list
  incidence_case(p, exact_add, 1, 1, 5, 1, seed + 2);      // one vertex
  incidence_case(p, exact_add, 40, 40, 300, 0, seed + 3);  // self-loops only
  incidence_case(p, exact_add, 50, 50, 2000, 3, seed + 4); // heavy parallel
  incidence_case(p, exact_add, 64, 64, 900, 64, seed + 5); // mixed
  incidence_case(p, exact_add, 8, 8, 5000, 8, seed + 6);   // m >> n
  incidence_case(p, exact_add, index_t{1} << 15, index_t{1} << 15, 3000,
                 index_t{1} << 15, seed + 7);              // n = 2^15
  incidence_case(p, exact_add, wide, wide, 4000, wide, seed + 8);  // n > 2^15
  incidence_case(p, exact_add, 200000, 200000, 40, 200000,
                 seed + 9);                                // m << n
  incidence_case(p, exact_add, wide, wide, 3000, 5, seed + 10);  // wide, parallel
  incidence_case(p, exact_add, 30, 70000, 2500, 70000, seed + 11);  // bipartite
}

/// kAuto's build kernel packs (row, col, slot) into a 64-bit sort key
/// when the shape says it fits in 63 bits, else into a 128-bit one. An
/// output 2^60 (fits: 60 column + 3 slot bits) and 2^60 + 1 (does not)
/// columns wide, over one source
/// vertex and 8 edges, must match the heap merge exactly either way
/// (forced kGustavson would allocate a 2^60-wide accumulator).
void key_width_case() {
  const algebra::MinPlus<double> p;
  for (const index_t ncols : {index_t{1} << 60, (index_t{1} << 60) + 1}) {
    const std::vector<index_t> src(8, 0);
    const std::vector<index_t> dst = {ncols - 1, 0, ncols - 1, 5,
                                      ncols - 2, 0, 7,         ncols - 1};
    const auto a = singleton_rows(1, src, false, RowShape::kIncidence, 1);
    const auto b = singleton_rows(ncols, dst, false, RowShape::kIncidence, 2);
    const auto heap = sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kHeap);
    CHECK_EQ(heap.nnz(), 5);
    CHECK(exact_eq(sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kAuto),
                   heap));
    CHECK(exact_eq(
        sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kAuto, g_pool4),
        heap));
  }
}

/// Generated row-singleton AᵀB on real-valued +.×: m terms drawn onto a
/// random number of source and destination vertices (few of them, for
/// heavy parallel edges, or up to the whole range), with n_dst sometimes
/// 2^58 + d, where the kernel's keys need 128 bits, and edges sometimes
/// sorted and without parallels. kAuto must equal
/// the stable-sort reference build of the terms (kSum folds them in
/// increasing e, as ⊕ = + does) on every pool, and forced kGustavson
/// wherever its dense accumulator fits.
void generated_incidence_cases(std::uint64_t seed) {
  const algebra::PlusTimes<double> p;
  util::ThreadPool pool2(2), pool8(8);
  util::ThreadPool* const pools[] = {nullptr, g_pool1, &pool2, g_pool4,
                                     &pool8};
  util::Xoshiro256 rng(seed);
  for (int t = 0; t < 40; ++t) {
    const index_t m = rng.between(0, 3) == 0 ? rng.between(0, 63)
                                             : rng.between(64, 6000);
    const index_t n_src = rng.between(0, 2) == 0 ? 30 : rng.between(1, 5000);
    const index_t n_dst = rng.between(0, 2) == 0
                              ? (index_t{1} << 58) + rng.between(0, 1000)
                              : rng.between(1, 70000);
    const index_t src_range = rng.between(1, n_src);
    const index_t dst_range = rng.between(0, 1) == 0 ? rng.between(1, 16)
                                                     : n_dst;
    std::vector<index_t> src(static_cast<std::size_t>(m));
    std::vector<index_t> dst(static_cast<std::size_t>(m));
    for (std::size_t e = 0; e < src.size(); ++e) {
      src[e] = rng.between(0, src_range - 1);
      dst[e] = n_dst - 1 - rng.between(0, dst_range - 1);
    }
    if (rng.between(0, 3) == 0) {
      // Edges sorted by (src, dst) without parallels: the terms arrive
      // in order, and the kernel copies them through.
      std::vector<std::pair<index_t, index_t>> edges;
      for (std::size_t e = 0; e < src.size(); ++e) {
        edges.emplace_back(src[e], dst[e]);
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      src.resize(edges.size());
      dst.resize(edges.size());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        src[e] = edges[e].first;
        dst[e] = edges[e].second;
      }
    }
    const auto a =
        singleton_rows(n_src, src, false, RowShape::kIncidence, rng.next());
    const auto b =
        singleton_rows(n_dst, dst, false, RowShape::kIncidence, rng.next());
    sparse::Coo<double> terms(n_src, n_dst);
    for (std::size_t e = 0; e < src.size(); ++e) {
      terms.push(src[e], dst[e], p.mul(a.vals()[e], b.vals()[e]));
    }
    const auto ref = i2a::test::csr_from_coo_reference(std::move(terms));
    if (n_dst <= (index_t{1} << 20)) {
      CHECK(exact_eq(
          sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kGustavson), ref));
    }
    for (util::ThreadPool* pool : pools) {
      CHECK(exact_eq(
          sparse::spgemm_at_b(p, a, b, sparse::SpGemmAlgo::kAuto, pool), ref));
    }
  }
}

template <typename P>
void run_pair(const P& p, std::uint64_t seed) {
  differential_case(p, 1, 1, 1, 1, 1, seed);            // 1×1
  differential_case(p, 0, 0, 0, 0, 0, seed + 1);        // fully empty
  differential_case(p, 0, 5, 3, 0, 7, seed + 2);        // A has no rows
  differential_case(p, 4, 0, 3, 0, 0, seed + 3);        // empty inner dim
  differential_case(p, 6, 5, 0, 9, 0, seed + 4);        // B has no columns
  differential_case(p, 37, 29, 41, 150, 150, seed + 5); // generic rectangular
  differential_case(p, 24, 24, 24, 400, 400, seed + 6); // dense-ish, collisions
  differential_case(p, 16, 3, 50, 30, 40, seed + 7);    // narrow inner dim
  differential_case(p, 128, 2048, 32, 60, 300, seed + 8);  // hyper-sparse
  differential_case(p, 40, 40, 40, 15, 15, seed + 9);   // mostly empty rows
  // kAuto's width switch: the widest output it folds with the dense
  // accumulator, and the narrowest it hands to the heap merge. ~500
  // entries per B row, so B rows share columns and the folds collide.
  differential_case(p, 6, 12, index_t{1} << 15, 30, 6000, seed + 10);
  differential_case(p, 6, 12, (index_t{1} << 15) + 1, 30, 6000, seed + 11);
  // Dense output (~60% full): each row's min(flops, ncols) reserve
  // overshoots its nnz by more than 1/8, so even the serial run stitches
  // its slab instead of moving it out.
  differential_case(p, 64, 64, 256, 512, 2048, seed + 12);
  // ⊕ = max/min is exactly associative and commutative on any doubles;
  // + is not, so +.× meets kHeap only on integer values.
  run_incidence(p, !std::is_same_v<P, algebra::PlusTimes<double>>,
                seed + 50);
}

}  // namespace

int main() {
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  g_pool1 = &pool1;
  g_pool4 = &pool4;

  run_pair(algebra::PlusTimes<double>{}, 100);
  run_pair(algebra::MaxTimes<double>{}, 200);
  run_pair(algebra::MinTimes<double>{}, 300);
  run_pair(algebra::MaxPlus<double>{}, 400);
  run_pair(algebra::MinPlus<double>{}, 500);
  run_pair(algebra::MaxMin<double>{}, 600);
  run_pair(algebra::MinMax<double>{}, 700);
  key_width_case();
  const std::uint64_t seed = i2a::test::env_seed("I2A_BUILD_SEED", 20261019);
  std::printf("test_spgemm_differential: seed %llu (I2A_BUILD_SEED)\n",
              static_cast<unsigned long long>(seed));
  generated_incidence_cases(seed);

  return TEST_MAIN_RESULT();
}
