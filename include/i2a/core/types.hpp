#pragma once
/// \file core/types.hpp
/// \brief Fundamental scalar types shared by every layer of i2a.

#include <cstdint>
#include <stdexcept>

namespace i2a {

/// Row/column/vertex/edge index type.
///
/// Deliberately 64-bit: the bench workloads already size matrices as
/// `nr * nc` products (e.g. expected-nnz estimates) and the roadmap calls
/// for billion-edge graphs, so a 32-bit index would overflow long before
/// memory runs out. Signed so that `-1` sentinels (BFS levels, parent
/// pointers) and backwards loops stay natural.
using index_t = std::int64_t;

/// a * b, throwing std::overflow_error instead of invoking signed-overflow
/// UB. Use for cell/element counts derived from user-supplied dimensions:
/// domains with >= 2^63 cells are unsupported and must fail loudly, not
/// wrap into a silently empty result.
inline index_t checked_mul(index_t a, index_t b) {
  index_t out;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw std::overflow_error("index_t product overflow: domain too large");
  }
  return out;
}

/// a + b, throwing std::overflow_error instead of invoking signed-overflow
/// UB: the sum of two user-supplied dimensions.
inline index_t checked_add(index_t a, index_t b) {
  index_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    throw std::overflow_error("index_t sum overflow: domain too large");
  }
  return out;
}

}  // namespace i2a
