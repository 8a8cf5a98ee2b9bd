// Constant-memory latency recording for the end-to-end benchmark.
//
// A log-linear histogram: values below 128 get one exact bucket each; above
// that, every power-of-two octave is split into 128 equal sub-buckets, so a
// bucket is at most 1/128 of its lower bound wide. Percentiles report the
// bucket midpoint, which is within 1/256 (0.39%) of any value the bucket
// holds. Memory is fixed (4352 counters, 17 KiB) however many samples
// arrive, so a long small-RPC window does not inflate the process's peak RSS
// the way a vector of raw samples would.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bsoap::e2e {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Values from 2^kMaxBits up (18 minutes, in ns) share the top bucket.
  static constexpr int kMaxBits = 40;
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kMaxBits) - 1;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  static std::size_t bucket_of(std::uint64_t v) {
    v = std::min(v, kMaxValue);
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }

  /// Smallest value in bucket `b`.
  static std::uint64_t bucket_low(std::size_t b) {
    if (b < kSub) return b;
    const std::size_t shift = b / kSub - 1;
    return (kSub + b % kSub) << shift;
  }

  /// Largest value in bucket `b`.
  static std::uint64_t bucket_high(std::size_t b) {
    if (b < kSub) return b;
    const std::size_t shift = b / kSub - 1;
    return bucket_low(b) + ((std::uint64_t{1} << shift) - 1);
  }

  void record(std::uint64_t v) {
    counts_[bucket_of(v)] += 1;
    count_ += 1;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile (q in (0, 1]): the midpoint of the bucket that
  /// holds the ceil(q * count)-th smallest sample. 0 when empty.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        const std::uint64_t lo = bucket_low(b);
        return lo + (bucket_high(b) - lo) / 2;
      }
    }
    return bucket_high(kBuckets - 1);
  }

 private:
  /// 32-bit counts: one run records far fewer than 2^32 samples.
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

}  // namespace bsoap::e2e
