#pragma once
/// \file util/prng.hpp
/// \brief Xoshiro256** pseudo-random generator with the small convenience
///        surface the generators and benches use (`next`, `chance`,
///        `uniform`, `between`).
///
/// Xoshiro256** (Blackman & Vigna) is the usual choice for graph-generator
/// workloads: 256-bit state, excellent equidistribution, and far faster
/// than std::mt19937_64. Seeding goes through SplitMix64 so that small
/// consecutive seeds (1, 2, 3, ...) still produce decorrelated streams.

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/types.hpp"

namespace i2a::util {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    // SplitMix64 state expansion, per the xoshiro reference code.
    std::uint64_t z = seed;
    for (auto& word : state_) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      word = x ^ (x >> 31);
    }
  }

  /// Next raw 64-bit output.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with full 53-bit resolution.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw: true with probability `p` (clamped to [0, 1]).
  bool chance(double p) { return unit() < p; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }

  /// Uniform integer in the *inclusive* range [lo, hi]. A degenerate
  /// range (hi <= lo) returns lo instead of dividing by a zero span.
  index_t between(index_t lo, index_t hi) {
    if (hi <= lo) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<index_t>(next() % span);
  }

  /// The four state words, read-only: `gen::rmat` copies a block
  /// stream's state into its own registers and steps it there.
  const std::array<std::uint64_t, 4>& state() const { return state_; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Visit every index in [0, cells) independently with probability `p`,
/// in increasing order, in O(expected hits) time via geometric gap
/// skipping — the shared sampler behind Erdős–Rényi generation and
/// random-matrix workload builders. Throws std::invalid_argument for a
/// NaN `p`, which would pass both range tests and reach an undefined
/// conversion of floor(NaN).
template <typename Visit>
void sample_bernoulli_indices(Xoshiro256& rng, index_t cells, double p,
                              Visit&& visit) {
  if (std::isnan(p)) {
    throw std::invalid_argument("sample_bernoulli_indices: p is NaN");
  }
  if (cells <= 0 || p <= 0.0) return;
  if (p >= 1.0) {
    for (index_t t = 0; t < cells; ++t) visit(t);
    return;
  }
  const double log1mp = std::log1p(-p);
  index_t t = -1;
  for (;;) {
    const double u = rng.unit();
    const double gap = std::floor(std::log1p(-u) / log1mp);
    // A huge gap (tiny p, unlucky u) can exceed the index range; treat
    // it as falling past the end rather than overflowing the cast.
    if (gap >= static_cast<double>(cells - t)) break;
    t += 1 + static_cast<index_t>(gap);
    if (t >= cells) break;
    visit(t);
  }
}

}  // namespace i2a::util
