/// \file test_spgemm.cpp
/// \brief The two sparse row kernels must agree with each other and with
///        the dense full-semantics baseline on conforming pairs — serial
///        and thread-pooled — and reject mismatched shapes in every build.

#include <cmath>
#include <stdexcept>

#include "algebra/pairs.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

sparse::Csr<double> random_csr(index_t nr, index_t nc, int nnz,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  for (int k = 0; k < nnz; ++k) {
    coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
             rng.uniform(0.5, 4.0));
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

bool csr_near(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols() || a.nnz() != b.nnz()) {
    return false;
  }
  if (a.row_ptr() != b.row_ptr() || a.cols() != b.cols()) return false;
  for (std::size_t k = 0; k < a.vals().size(); ++k) {
    const double x = a.vals()[k];
    const double y = b.vals()[k];
    if (std::abs(x - y) > 1e-9 * std::max({1.0, std::abs(x), std::abs(y)})) {
      return false;
    }
  }
  return true;
}

template <typename P>
void check_all_algos_agree(const P& p, std::uint64_t seed) {
  const auto a = random_csr(37, 29, 150, seed);
  const auto b = random_csr(29, 41, 150, seed + 1);
  const auto ref = sparse::multiply_full_semantics(p, a, b);
  const auto gus = sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kGustavson);
  const auto heap = sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kHeap);
  CHECK(csr_near(gus, ref));
  CHECK(csr_near(heap, ref));

  util::ThreadPool pool(4);
  const auto par =
      sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kGustavson, &pool);
  CHECK(csr_near(par, ref));
}

void test_at_b_matches_explicit_transpose() {
  const algebra::PlusTimes<double> p;
  const auto a = random_csr(50, 13, 120, 5);
  const auto b = random_csr(50, 17, 120, 6);
  const auto via_helper = sparse::spgemm_at_b(p, a, b);
  const auto via_transpose = sparse::spgemm(p, sparse::transpose(a), b);
  CHECK(csr_near(via_helper, via_transpose));
  CHECK_EQ(via_helper.nrows(), 13);
  CHECK_EQ(via_helper.ncols(), 17);
}

template <typename F>
bool throws_invalid_argument(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

/// A shape mismatch throws in every build (the `NDEBUG` build included)
/// before any kernel reads an operand: a 3-row row-singleton A against a
/// 2-row one would otherwise send the per-edge fold past B's arrays.
void test_shape_mismatch_throws() {
  const algebra::PlusTimes<double> p;
  const sparse::Csr<double> a3(3, 4, {0, 1, 2, 3}, {0, 1, 2}, {1, 1, 1});
  const sparse::Csr<double> b2(2, 4, {0, 1, 2}, {0, 3}, {1, 1});
  util::ThreadPool pool(4);
  for (const auto algo :
       {sparse::SpGemmAlgo::kGustavson, sparse::SpGemmAlgo::kHeap,
        sparse::SpGemmAlgo::kAuto}) {
    CHECK(throws_invalid_argument([&] { sparse::spgemm_at_b(p, a3, b2, algo); }));
    CHECK(throws_invalid_argument(
        [&] { sparse::spgemm_at_b(p, b2, a3, algo, &pool); }));
    // spgemm: A is 3×4, so B needs 4 rows.
    CHECK(throws_invalid_argument([&] { sparse::spgemm(p, a3, b2, algo); }));
    CHECK(throws_invalid_argument(
        [&] { sparse::spgemm(p, a3, a3, algo, &pool); }));
  }
  // The matching shapes still multiply.
  CHECK_EQ(sparse::spgemm_at_b(p, a3, a3, sparse::SpGemmAlgo::kAuto).nnz(), 3);
}

}  // namespace

int main() {
  check_all_algos_agree(algebra::PlusTimes<double>{}, 11);
  check_all_algos_agree(algebra::MaxTimes<double>{}, 12);
  check_all_algos_agree(algebra::MinPlus<double>{}, 13);
  check_all_algos_agree(algebra::MaxMin<double>{}, 14);
  test_at_b_matches_explicit_transpose();
  test_shape_mismatch_throws();
  return TEST_MAIN_RESULT();
}
