#pragma once
/// \file histogram.hpp
/// \brief Fixed-size log-bucketed histogram for per-read samples.
///
/// Readers complete a speed-dependent number of reads, so a vector of
/// samples would make the benchmark's own memory, and with it
/// `peak_rss_mb`, depend on how fast the library ran. A histogram has a
/// fixed size. Values below 128 are exact; above that each power of two
/// is split into 128 buckets, so a percentile is within 0.8% of the
/// sample it stands for.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace e2e {

class Histogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++total_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t count() const { return total_; }

  /// Nearest-rank percentile (q in [0, 1]), as the middle of its bucket;
  /// 0 when empty.
  double percentile(double q) const {
    if (total_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (static_cast<double>(rank) < q * static_cast<double>(total_)) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return middle(i);
    }
    return middle(kBuckets - 1);
  }

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::size_t>(shift * kSub + (v >> shift));
  }

  static double middle(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    const double lo = static_cast<double>((kSub + i % kSub) << shift);
    return lo + static_cast<double>((1ULL << shift) - 1) / 2;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace e2e
