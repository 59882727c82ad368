// Host congestion control -- the paper's future-work direction of
// "extending ideas in hostCC [2] to the case of all traffic contained
// within a single host" (section 7).
//
// A controller samples the P2M-Write domain latency (the IIO write-buffer
// residency, exactly the signal the paper shows inflating under the red
// regime) at a fixed interval and duty-cycle-throttles the C2M cores when
// the latency exceeds a target. This trades a bounded amount of C2M
// throughput for restoring the P2M side -- the allocation the default host
// network cannot express.
//
//   target exceeded  -> throttle += step   (cores paused for throttle x interval)
//   target met       -> throttle -= step/2 (AIMD-flavored: release slowly)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hpp"
#include "cpu/core.hpp"
#include "iio/iio.hpp"
#include "sim/simulator.hpp"

namespace hostnet::hostcc {

struct HostccConfig {
  Tick interval = us(5);                ///< control loop period
  double target_p2m_latency_ns = 400;   ///< keeps P2M >= ~13 GB/s of 14
  double step = 0.10;                   ///< throttle increment per interval
  double max_throttle = 0.95;
  HOSTNET_FIELDS(HostccConfig, interval, target_p2m_latency_ns, step, max_throttle)
};

class HostCongestionController {
 public:
  /// Samples `iio`'s write latency and throttles every core in `cores` --
  /// its host's, including any added later -- when it exceeds the target.
  HostCongestionController(sim::Simulator& sim, iio::Iio& iio,
                           std::vector<std::unique_ptr<cpu::Core>>& cores,
                           const HostccConfig& cfg)
      : sim_(sim), iio_(iio), cores_(cores), cfg_(cfg) {}

  double throttle() const { return st_.throttle; }
  /// Time-average throttle over the measurement window.
  double avg_throttle(Tick now) const;

  // -- lifecycle (run by the owning core::HostSystem) -------------------------
  void start() { tick(); }
  void reset_counters(Tick now) {
    st_.window_start = now;
    st_.throttle_integral = 0.0;
    st_.last_change = now;
  }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct State {
    double throttle = 0.0;
    double last_latency_ns = 0.0;

    // Incremental latency sampling over the last interval.
    double prev_latency_sum = 0.0;
    std::uint64_t prev_completions = 0;

    // Window accounting.
    Tick window_start = 0;
    double throttle_integral = 0.0;
    Tick last_change = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, throttle, last_latency_ns, prev_latency_sum, prev_completions,
                   window_start, throttle_integral, last_change)
  };

 private:
  void tick();
  void sample_latency();
  void apply();

  sim::Simulator& sim_;
  iio::Iio& iio_;
  std::vector<std::unique_ptr<cpu::Core>>& cores_;
  const HostccConfig cfg_;
  State st_;
  HOSTNET_COMPONENT(HostCongestionController, sim_, iio_, cores_, cfg_, st_)
};

}  // namespace hostnet::hostcc
