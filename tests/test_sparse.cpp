/// \file test_sparse.cpp
/// \brief Csr::from_coo duplicate policies, CSR invariants, and the
///        transpose round-trip.

#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

sparse::Coo<double> dup_coo() {
  // (1,2) pushed three times with values 5, 1, 3 (in that order),
  // (0,0) once, (2,1) twice with 2 then 7.
  sparse::Coo<double> coo(3, 3);
  coo.push(1, 2, 5.0);
  coo.push(0, 0, 4.0);
  coo.push(1, 2, 1.0);
  coo.push(2, 1, 2.0);
  coo.push(1, 2, 3.0);
  coo.push(2, 1, 7.0);
  return coo;
}

void test_dup_policies() {
  using sparse::Csr;
  using sparse::DupPolicy;
  struct Case {
    DupPolicy policy;
    double at12;
    double at21;
  };
  const Case cases[] = {
      {DupPolicy::kSum, 9.0, 9.0},
      {DupPolicy::kKeepFirst, 5.0, 2.0},
  };
  for (const auto& c : cases) {
    const auto m = Csr<double>::from_coo(dup_coo(), c.policy);
    CHECK_EQ(m.nnz(), 3);
    CHECK_EQ(m.at(1, 2, 0.0), c.at12);
    CHECK_EQ(m.at(2, 1, 0.0), c.at21);
    CHECK_EQ(m.at(0, 0, 0.0), 4.0);
    CHECK_EQ(m.at(0, 1, -1.0), -1.0);  // absent entry -> sentinel
  }
}

void test_csr_invariants() {
  util::Xoshiro256 rng(99);
  sparse::Coo<double> coo(40, 30);
  for (int k = 0; k < 300; ++k) {
    coo.push(rng.between(0, 39), rng.between(0, 29), rng.uniform(0.1, 5.0));
  }
  const auto m = sparse::Csr<double>::from_coo(std::move(coo));
  CHECK_EQ(m.row_ptr().size(), 41u);
  CHECK_EQ(m.row_ptr().back(), m.nnz());
  index_t total = 0;
  for (index_t r = 0; r < m.nrows(); ++r) {
    const auto cs = m.row_cols(r);
    for (std::size_t k = 1; k < cs.size(); ++k) {
      CHECK(cs[k - 1] < cs[k]);  // strictly increasing after dedup
    }
    total += m.row_nnz(r);
  }
  CHECK_EQ(total, m.nnz());
}

void test_transpose_roundtrip() {
  util::Xoshiro256 rng(7);
  sparse::Coo<double> coo(25, 60);
  for (int k = 0; k < 400; ++k) {
    coo.push(rng.between(0, 24), rng.between(0, 59), rng.uniform(0.1, 9.0));
  }
  const auto a = sparse::Csr<double>::from_coo(std::move(coo),
                                               sparse::DupPolicy::kKeepFirst);
  const auto at = sparse::transpose(a);
  CHECK_EQ(at.nrows(), a.ncols());
  CHECK_EQ(at.ncols(), a.nrows());
  CHECK_EQ(at.nnz(), a.nnz());
  const auto att = sparse::transpose(at);
  CHECK(att.row_ptr() == a.row_ptr());
  CHECK(att.cols() == a.cols());
  CHECK(att.vals() == a.vals());
  // Spot-check symmetry of lookup through the transpose.
  for (index_t r = 0; r < a.nrows(); ++r) {
    const auto cs = a.row_cols(r);
    const auto vs = a.row_vals(r);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      CHECK_EQ(at.at(cs[k], r, -1.0), vs[k]);
    }
  }
}

}  // namespace

int main() {
  test_dup_policies();
  test_csr_invariants();
  test_transpose_roundtrip();
  return TEST_MAIN_RESULT();
}
