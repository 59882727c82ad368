// Log-bucketed latency histogram (HdrHistogram-style, base-2 buckets with
// linear sub-buckets) for tail-latency analysis. Production datacenter
// studies report host contention as *tail* latency inflation; the
// simulator records full distributions so benches can report p50/p99/p999.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace hostnet {

/// Values are recorded in nanoseconds (as integers); relative error per
/// bucket is <= 1/kSubBuckets.
class LatencyHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 5;  // 32 sub-buckets: ~3% error
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
  static constexpr std::uint32_t kBuckets = 40;       // covers [0, ~2^40) ns

  void add(double ns) {
    if (ns < 0) ns = 0;
    const auto v = static_cast<std::uint64_t>(ns);
    ++counts_[index(v)];
    ++total_;
  }

  void reset() {
    counts_ = {};
    total_ = 0;
  }

  bool operator==(const LatencyHistogram&) const = default;

  /// Fold another histogram into this one (bucket layout is static, so the
  /// merge is exact bucket-wise addition). The fleet aggregator relies on
  /// this: per-shard histograms merge into a fleet-wide one without ever
  /// holding per-host samples.
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  std::uint64_t count() const { return total_; }

  /// Quantile in [0,1]; returns a representative (upper-bound) value in ns.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) return upper_bound(i);
    }
    return upper_bound(counts_.size() - 1);
  }

  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
  double max() const {
    for (std::size_t i = counts_.size(); i-- > 0;)
      if (counts_[i] > 0) return upper_bound(i);
    return 0.0;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const auto bucket = static_cast<std::uint32_t>(msb) - kSubBucketBits + 1;
    const auto sub = static_cast<std::uint32_t>(v >> (msb - static_cast<int>(kSubBucketBits) + 1)) &
                     (kSubBuckets / 2 - 1);
    const std::size_t idx = kSubBuckets + (bucket - 1) * (kSubBuckets / 2) + sub;
    return idx < kTotalSlots ? idx : kTotalSlots - 1;
  }

  static double upper_bound(std::size_t idx) {
    if (idx < kSubBuckets) return static_cast<double>(idx + 1);
    const std::size_t rel = idx - kSubBuckets;
    const std::uint32_t bucket = static_cast<std::uint32_t>(rel / (kSubBuckets / 2)) + 1;
    const std::uint32_t sub = rel % (kSubBuckets / 2) + kSubBuckets / 2;
    return static_cast<double>((static_cast<std::uint64_t>(sub) + 1) << bucket);
  }

  static constexpr std::size_t kTotalSlots = kSubBuckets + kBuckets * (kSubBuckets / 2);
  std::array<std::uint64_t, kTotalSlots> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace hostnet
