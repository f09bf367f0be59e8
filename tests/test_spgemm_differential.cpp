/// \file test_spgemm_differential.cpp
/// \brief Differential SpGEMM suite: every sparse kernel (Gustavson,
///        heap, auto) must be *exactly* equal to the dense full-semantics
///        baseline, for all seven Table I operator pairs, serially and
///        under pool sizes {1, 4}, across randomized shapes including
///        empty matrices, empty rows, 1×1, hyper-sparse, both sides of
///        kAuto's 2^15-column switch and a dense output.
///
/// Exactness is achievable because inputs are integer-valued doubles in
/// [1, 8]: every ⊗ product and ⊕ fold of the seven pairs is then exact
/// in double regardless of association order, so a single bit of
/// difference between a kernel and the baseline is a real bug, not
/// round-off.

#include <cstdint>

#include "algebra/pairs.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
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

  // Fused AᵀB rides the same engine through a CSC view; pin it to the
  // baseline on the explicitly transposed operand.
  const auto tall = random_int_csr(inner, m, nnz_a, seed + 2000);
  const auto fused_ref =
      sparse::multiply_full_semantics(p, sparse::transpose(tall), b);
  const sparse::CscView<double> view(tall);
  for (const auto algo : kAlgos) {
    CHECK(exact_eq(sparse::spgemm_at_b(p, tall, b, algo), fused_ref));
    CHECK(exact_eq(sparse::spgemm_at_b(p, view, b, algo, g_pool4), fused_ref));
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

  return TEST_MAIN_RESULT();
}
