// Latency/occupancy measurement stations -- the simulated analogue of the
// Intel uncore performance monitoring counters the paper uses (section 4.2).
//
// A station tracks (a) the time-weighted occupancy O of a queue/buffer and
// (b) the completion count R over a measurement window. Average latency is
// derived with Little's law, L = O / R -- exactly the paper's methodology.
// The direct per-request latency mean is also tracked so tests can verify
// the two agree.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace hostnet::counters {

class LatencyStation {
 public:
  void enter(Tick now) { occ_.add(now, +1); }

  void leave(Tick now, Tick entered) {
    occ_.add(now, -1);
    ++completions_;
    const double l = to_ns(now - entered);
    latency_sum_ns_ += l;
    histogram_.add(l);
  }

  /// Leave without a latency sample: occupancy-only stations (pools whose
  /// hold latency is measured elsewhere) keep their integral exact without
  /// polluting the completion count or histogram.
  void leave_untimed(Tick now) { occ_.add(now, -1); }

  /// Begin a fresh measurement window at `now` (occupancy level persists).
  void reset(Tick now) {
    occ_.reset(now);
    completions_ = 0;
    latency_sum_ns_ = 0.0;
    histogram_.reset();
    window_start_ = now;
  }

  /// Full latency distribution (tail analysis).
  const LatencyHistogram& histogram() const { return histogram_; }

  std::int64_t occupancy() const { return occ_.level(); }
  std::int64_t max_occupancy() const { return occ_.max_level(); }
  double avg_occupancy(Tick now) { return occ_.average(now); }
  /// Direct access to the occupancy integral (e.g. the CHA exposes its
  /// write-tracker backlog integral as the formula's N_waiting input).
  TimeWeighted& occupancy_integral() { return occ_; }
  std::uint64_t completions() const { return completions_; }
  bool operator==(const LatencyStation&) const = default;

  /// Mean latency from direct per-request measurement.
  double mean_latency_ns() const {
    return completions_ ? latency_sum_ns_ / static_cast<double>(completions_) : 0.0;
  }

  /// Mean latency via Little's law on (occupancy, completion rate); this is
  /// what the real PMU methodology produces.
  double littles_latency_ns(Tick now) {
    if (completions_ == 0) return 0.0;
    const double window_ns = to_ns(now - window_start_);
    if (window_ns <= 0.0) return 0.0;
    const double rate = static_cast<double>(completions_) / window_ns;  // per ns
    return avg_occupancy(now) / rate;
  }

 private:
  TimeWeighted occ_;
  LatencyHistogram histogram_;
  std::uint64_t completions_ = 0;
  double latency_sum_ns_ = 0.0;
  Tick window_start_ = 0;
};

}  // namespace hostnet::counters
