// Small statistics helpers used by the simulated PMU and the bench harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace hostnet {

/// Streaming mean / min / max / count over double samples.
class MeanAccumulator {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  void reset() { *this = {}; }
  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  bool operator==(const MeanAccumulator&) const = default;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of an integer level (queue occupancy, credits in
/// use, ...). Mirrors how Intel uncore counters aggregate occupancy every
/// cycle; we integrate exactly over event time instead.
class TimeWeighted {
 public:
  void set(Tick now, std::int64_t level) {
    integrate(now);
    level_ = level;
    max_ = std::max(max_, level_);
  }
  void add(Tick now, std::int64_t delta) { set(now, level_ + delta); }

  /// Start a measurement window at `now` (discard history).
  void reset(Tick now) {
    last_ = now;
    start_ = now;
    integral_ = 0.0;
    max_ = level_;
    time_at_cap_ = 0;
  }

  /// Mark `level >= cap` time (used for "WPQ full" fractions).
  void set_cap(std::int64_t cap) { cap_ = cap; }

  std::int64_t level() const { return level_; }
  std::int64_t max_level() const { return max_; }
  bool operator==(const TimeWeighted&) const = default;

  double average(Tick now) {
    integrate(now);
    const Tick dt = now - start_;
    return dt > 0 ? integral_ / static_cast<double>(dt) : static_cast<double>(level_);
  }

  /// Fraction of window time spent with level >= cap.
  double fraction_at_cap(Tick now) {
    integrate(now);
    const Tick dt = now - start_;
    return dt > 0 ? static_cast<double>(time_at_cap_) / static_cast<double>(dt) : 0.0;
  }

 private:
  void integrate(Tick now) {
    if (now > last_) {
      integral_ += static_cast<double>(level_) * static_cast<double>(now - last_);
      if (cap_ > 0 && level_ >= cap_) time_at_cap_ += now - last_;
      last_ = now;
    }
  }

  std::int64_t level_ = 0;
  std::int64_t max_ = 0;
  std::int64_t cap_ = 0;
  Tick last_ = 0;
  Tick start_ = 0;
  Tick time_at_cap_ = 0;
  double integral_ = 0.0;
};

/// Collects samples and reports quantiles / CDF points.
class SampleSet {
 public:
  void add(double v) { samples_.push_back(v); }
  void reset() { samples_.clear(); }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

  /// Quantile in [0,1]; sorts a copy.
  double quantile(double q) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> v = samples_;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  }

  /// Fraction of samples >= threshold (for "bank deviation >= 1.5x" stats).
  double fraction_at_least(double threshold) const {
    if (samples_.empty()) return 0.0;
    std::size_t c = 0;
    for (double v : samples_)
      if (v >= threshold) ++c;
    return static_cast<double>(c) / static_cast<double>(samples_.size());
  }

  const std::vector<double>& values() const { return samples_; }
  bool operator==(const SampleSet&) const = default;

 private:
  std::vector<double> samples_;
};

/// Relative error of an estimate vs. a measurement, in percent; positive
/// means overestimation (the sign convention of the paper's Figure 11).
inline double relative_error_pct(double estimate, double measured) {
  if (measured == 0.0) return 0.0;
  return (estimate - measured) / measured * 100.0;
}

}  // namespace hostnet
