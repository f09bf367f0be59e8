/// \file test_csr_edge_cases.cpp
/// \brief CSR invariants the SpGEMM and merge kernels rely on:
///        duplicate-policy handling, entry range checks and negative
///        dimensions in COO→CSR assembly, `transpose` round-trips, and `Csr::checked` rejecting
///        out-of-order columns and other malformed storage.

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/prng.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

template <typename F>
bool throws_invalid_argument(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

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

void test_dup_policies() {
  // Three entries collide on (1, 2) in push order 3, 1, 2; one singleton
  // at (0, 0) checks non-duplicates are untouched by every policy.
  const auto make = [] {
    sparse::Coo<double> coo(3, 4);
    coo.push(0, 0, 7.0);
    coo.push(1, 2, 3.0);
    coo.push(1, 2, 1.0);
    coo.push(1, 2, 2.0);
    return coo;
  };
  const std::pair<sparse::DupPolicy, double> expect[] = {
      {sparse::DupPolicy::kSum, 6.0}, {sparse::DupPolicy::kKeepFirst, 3.0}};
  for (const auto& [policy, want] : expect) {
    const auto csr = sparse::Csr<double>::from_coo(make(), policy);
    CHECK_EQ(csr.nnz(), 2);
    CHECK_EQ(csr.at(1, 2, 0.0), want);
    CHECK_EQ(csr.at(0, 0, 0.0), 7.0);
    CHECK(csr.is_canonical());
  }
}

void test_from_coo_rejects_out_of_range_entries() {
  // Entries written through entries() bypass push's assert; from_coo
  // must refuse each of them in every build instead of writing out of
  // bounds.
  const std::pair<index_t, index_t> bad[] = {{-1, 0}, {3, 0}, {0, -1}, {0, 4}};
  for (const auto& [r, c] : bad) {
    sparse::Coo<double> coo(3, 4);
    coo.push(1, 1, 1.0);
    coo.entries().push_back({r, c, 2.0});
    bool threw = false;
    try {
      (void)sparse::Csr<double>::from_coo(std::move(coo));
    } catch (const std::out_of_range&) {
      threw = true;
    }
    CHECK(threw);
  }
}

void test_from_coo_rejects_negative_dimensions() {
  // A negative row count once ran the prefix sum over an empty row
  // pointer; a negative column count returned a non-canonical Csr.
  CHECK(throws_invalid_argument([] {
    (void)sparse::Csr<double>::from_coo(sparse::Coo<double>(-1, 5));
  }));
  CHECK(throws_invalid_argument([] {
    (void)sparse::Csr<double>::from_coo(sparse::Coo<double>(3, -2));
  }));
}

void test_transpose_round_trip() {
  const auto a = random_csr(23, 31, 120, 7);
  const auto round = sparse::transpose(sparse::transpose(a));
  CHECK_EQ(round.nrows(), a.nrows());
  CHECK_EQ(round.ncols(), a.ncols());
  CHECK(round.row_ptr() == a.row_ptr());
  CHECK(round.cols() == a.cols());
  CHECK(round.vals() == a.vals());
  CHECK(sparse::transpose(a).is_canonical());

  // Degenerate shapes survive the round trip too.
  const sparse::Csr<double> empty;
  CHECK_EQ(sparse::transpose(empty).nnz(), 0);
  const auto rowless = random_csr(1, 9, 4, 8);
  CHECK(sparse::transpose(sparse::transpose(rowless)).cols() ==
        rowless.cols());
}

void test_checked_accepts_canonical() {
  const auto a = random_csr(11, 13, 40, 17);
  CHECK(a.is_canonical());
  const auto same = sparse::Csr<double>::checked(
      a.nrows(), a.ncols(), a.row_ptr(), a.cols(), a.vals());
  CHECK(same.row_ptr() == a.row_ptr());
  CHECK(same.cols() == a.cols());
  CHECK(sparse::Csr<double>::checked(0, 0, {0}, {}, {}).is_canonical());
}

void test_checked_rejects_malformed() {
  using C = sparse::Csr<double>;
  // Out-of-order columns within a row — the invariant the heap merges
  // and `at`'s binary search lean on.
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 5, {0, 2}, {3, 1}, {1.0, 2.0}); }));
  // Duplicate column within a row.
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 5, {0, 2}, {2, 2}, {1.0, 2.0}); }));
  // Column out of range.
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 3, {0, 1}, {3}, {1.0}); }));
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 3, {0, 1}, {-1}, {1.0}); }));
  // row_ptr defects: wrong size, bad endpoints, non-monotone.
  CHECK(throws_invalid_argument([] { C::checked(2, 3, {0, 1}, {0}, {1.0}); }));
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 3, {1, 1}, {}, {}); }));
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 3, {0, 2}, {0}, {1.0}); }));
  CHECK(throws_invalid_argument([] {
    C::checked(2, 3, {0, 2, 1}, {0}, {1.0});
  }));
  // cols/vals length mismatch.
  CHECK(throws_invalid_argument(
      [] { C::checked(1, 3, {0, 1}, {0}, {1.0, 2.0}); }));
  // Negative dimension.
  CHECK(throws_invalid_argument([] { C::checked(-1, 3, {0}, {}, {}); }));

  // is_canonical flags the same defect without throwing.
  const C bad(1, 5, {0, 2}, {3, 1}, {1.0, 2.0});
  CHECK(!bad.is_canonical());
}

}  // namespace

int main() {
  test_dup_policies();
  test_from_coo_rejects_out_of_range_entries();
  test_from_coo_rejects_negative_dimensions();
  test_transpose_round_trip();
  test_checked_accepts_canonical();
  test_checked_rejects_malformed();
  return TEST_MAIN_RESULT();
}
