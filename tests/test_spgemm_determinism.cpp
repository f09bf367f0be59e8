/// \file test_spgemm_determinism.cpp
/// \brief The SpGEMM engine must be bit-deterministic: `spgemm` and the
///        fused `spgemm_at_b` return byte-identical CSR (row_ptr, cols,
///        vals) under pool sizes {1, 2, 8} and serially, for every
///        algorithm — on full-precision real values, where any change in
///        ⊕ fold order would flip result bits. Also stresses
///        `ThreadPool::parallel_for`: a throwing chunk propagates exactly
///        one exception and leaves the pool reusable, and the chunk-id
///        decomposition of `parallel_for_chunks` is a disjoint cover that
///        matches `num_chunks`.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "algebra/pairs.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

using namespace i2a;

namespace {

sparse::Csr<double> random_real_csr(index_t nr, index_t nc, int nnz,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  sparse::Coo<double> coo(nr, nc);
  for (int k = 0; k < nnz; ++k) {
    coo.push(rng.between(0, nr - 1), rng.between(0, nc - 1),
             rng.uniform(0.1, 9.9));
  }
  return sparse::Csr<double>::from_coo(std::move(coo),
                                       sparse::DupPolicy::kKeepFirst);
}

/// Byte-identical: full-precision == on every component vector.
bool identical(const sparse::Csr<double>& a, const sparse::Csr<double>& b) {
  return i2a::test::csr_bitwise_equal(a, b);
}

constexpr sparse::SpGemmAlgo kAlgos[] = {sparse::SpGemmAlgo::kGustavson,
                                         sparse::SpGemmAlgo::kHeap,
                                         sparse::SpGemmAlgo::kAuto};

void test_spgemm_pool_size_invariance() {
  const auto a = random_real_csr(211, 147, 2600, 21);
  const auto b = random_real_csr(147, 189, 2600, 22);
  const algebra::PlusTimes<double> p;  // FP ⊕: fold order shows in the bits
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto algo : kAlgos) {
    const auto serial = sparse::spgemm(p, a, b, algo);
    CHECK(identical(sparse::spgemm(p, a, b, algo, &pool1), serial));
    CHECK(identical(sparse::spgemm(p, a, b, algo, &pool2), serial));
    CHECK(identical(sparse::spgemm(p, a, b, algo, &pool8), serial));
  }
}

void test_spgemm_at_b_pool_size_invariance() {
  const auto a = random_real_csr(300, 83, 2200, 31);  // tall incidence shape
  const auto b = random_real_csr(300, 97, 2200, 32);
  const algebra::MinPlus<double> p;
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto algo : kAlgos) {
    const auto serial = sparse::spgemm_at_b(p, a, b, algo);
    CHECK(identical(sparse::spgemm_at_b(p, a, b, algo, &pool1), serial));
    CHECK(identical(sparse::spgemm_at_b(p, a, b, algo, &pool2), serial));
    CHECK(identical(sparse::spgemm_at_b(p, a, b, algo, &pool8), serial));
  }
}

void test_parallel_for_chunks_partition() {
  util::ThreadPool pool(8);
  const index_t n = 1000;
  const index_t nchunks = pool.num_chunks(n);
  CHECK(nchunks >= 1 && nchunks <= static_cast<index_t>(pool.size()));

  std::mutex mu;
  std::vector<std::pair<index_t, index_t>> ranges;  // by chunk id
  std::vector<int> seen(static_cast<std::size_t>(nchunks), 0);
  ranges.resize(static_cast<std::size_t>(nchunks), {-1, -1});
  pool.parallel_for_chunks(n, [&](index_t chunk, index_t begin, index_t end) {
    std::lock_guard<std::mutex> lock(mu);
    CHECK(chunk >= 0 && chunk < nchunks);
    ++seen[static_cast<std::size_t>(chunk)];
    ranges[static_cast<std::size_t>(chunk)] = {begin, end};
  });
  // Every chunk id fired exactly once and the ranges tile [0, n).
  index_t cursor = 0;
  for (index_t c = 0; c < nchunks; ++c) {
    CHECK_EQ(seen[static_cast<std::size_t>(c)], 1);
    CHECK_EQ(ranges[static_cast<std::size_t>(c)].first, cursor);
    cursor = ranges[static_cast<std::size_t>(c)].second;
  }
  CHECK_EQ(cursor, n);

  CHECK_EQ(pool.num_chunks(0), 0);
  CHECK_EQ(pool.num_chunks(1), 1);
}

void test_parallel_for_exception_propagation() {
  util::ThreadPool pool(8);
  // Every chunk throws; the caller must observe exactly one exception.
  std::atomic<int> thrown{0};
  int caught = 0;
  try {
    pool.parallel_for(64, [&](index_t, index_t) {
      ++thrown;
      throw std::runtime_error("chunk boom");
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    CHECK_EQ(std::string(e.what()), std::string("chunk boom"));
  }
  CHECK_EQ(caught, 1);
  CHECK(thrown.load() > 1);  // several chunks really did throw

  // A single throwing chunk in the middle also surfaces.
  caught = 0;
  try {
    pool.parallel_for(64, [&](index_t begin, index_t) {
      if (begin > 0) throw std::runtime_error("middle boom");
    });
  } catch (const std::runtime_error&) {
    ++caught;
  }
  CHECK_EQ(caught, 1);

  // The pool stays fully usable afterwards.
  std::atomic<index_t> covered{0};
  pool.parallel_for(1000, [&](index_t begin, index_t end) {
    covered += end - begin;
  });
  CHECK_EQ(covered.load(), 1000);

  // And the engine still runs on it.
  const auto a = random_real_csr(60, 40, 300, 41);
  const auto b = random_real_csr(40, 50, 300, 42);
  const algebra::PlusTimes<double> p;
  CHECK(identical(sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kAuto, &pool),
                  sparse::spgemm(p, a, b, sparse::SpGemmAlgo::kAuto)));
}

}  // namespace

int main() {
  test_spgemm_pool_size_invariance();
  test_spgemm_at_b_pool_size_invariance();
  test_parallel_for_chunks_partition();
  test_parallel_for_exception_propagation();
  return TEST_MAIN_RESULT();
}
