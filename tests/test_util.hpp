#pragma once
/// \file test_util.hpp
/// \brief Minimal assert-style harness: CHECK records failures and the
///        test main returns nonzero if any fired. No framework
///        dependency, so tier-1 needs nothing beyond the toolchain.

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"

namespace i2a::test {
inline int failures = 0;

/// Bitwise CSR equality — the byte-identical bar every determinism and
/// differential suite holds the engines to (shape, row pointer, columns,
/// and values, compared exactly; no tolerance anywhere).
template <typename T>
bool csr_bitwise_equal(const sparse::Csr<T>& a, const sparse::Csr<T>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ptr() == b.row_ptr() && a.cols() == b.cols() &&
         a.vals() == b.vals();
}

/// Bitwise DCSR equality: shape, stored row ids, row pointer, columns
/// and values.
template <typename T>
bool dcsr_bitwise_equal(const sparse::Dcsr<T>& a, const sparse::Dcsr<T>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ids() == b.row_ids() && a.row_ptr() == b.row_ptr() &&
         a.cols() == b.cols() && a.vals() == b.vals();
}

/// The seed of a generated suite: the environment variable `var` when
/// set (decimal, 0x… or 0…), else `fallback`. The suite prints it, so a
/// failing case can be replayed.
inline std::uint64_t env_seed(const char* var, std::uint64_t fallback) {
  const char* env = std::getenv(var);
  return env != nullptr ? std::strtoull(env, nullptr, 0) : fallback;
}

}  // namespace i2a::test

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::printf("CHECK failed at %s:%d: %s\n", __FILE__, __LINE__,      \
                  #cond);                                                 \
      ++i2a::test::failures;                                              \
    }                                                                     \
  } while (0)

#define CHECK_EQ(a, b)                                                    \
  do {                                                                    \
    if (!((a) == (b))) {                                                  \
      std::printf("CHECK_EQ failed at %s:%d: %s == %s\n", __FILE__,       \
                  __LINE__, #a, #b);                                      \
      ++i2a::test::failures;                                              \
    }                                                                     \
  } while (0)

#define TEST_MAIN_RESULT()                                                \
  (i2a::test::failures == 0                                               \
       ? (std::printf("OK\n"), 0)                                         \
       : (std::printf("%d check(s) FAILED\n", i2a::test::failures), 1))
