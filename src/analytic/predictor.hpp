// Configuration-driven performance predictor -- the paper's future-work
// direction of "an analytical model that can predict performance given a
// particular host network hardware configuration" (section 7), i.e. the
// section-6 formula with its measured inputs replaced by modeled ones.
//
// Given a host configuration and an offered workload, the predictor solves
// a fixed point over {per-class throughputs, domain latencies}:
//
//   1. model the MC-level formula inputs (switch rate from the WPQ drain
//      policy, row-miss ratio from the page-close/drain-interruption
//      mechanism, RPQ occupancy via Little's law on MC residency);
//   2. evaluate the paper's read/write domain-latency formulae;
//   3. apply the domain law T = C x 64 / L per class, cap by offered load
//      and by channel capacity, and re-derive rates.
//
// It is intentionally first-order (the paper's formula plus closure
// models); accuracy is validated against the simulator in the
// bench_ext_predictor figure and tests. Use it for what-if sweeps where
// running the simulator per point is too slow.
#pragma once

#include <cstdint>

#include "analytic/formula.hpp"
#include "core/domains.hpp"
#include "core/presets.hpp"

namespace hostnet::analytic {

struct PredictorWorkload {
  std::uint32_t c2m_cores = 0;
  bool c2m_writes = false;   ///< C2M-ReadWrite (STREAM store) vs C2M-Read
  double p2m_write_offered_gbps = 0;  ///< PCIe-limited offered DMA writes
  double p2m_read_offered_gbps = 0;   ///< PCIe-limited offered DMA reads
};

struct Prediction {
  bool converged = false;
  int iterations = 0;

  double c2m_read_latency_ns = 0;   ///< LFB credit-hold estimate
  double c2m_gbps = 0;              ///< C2M read throughput
  double c2m_write_gbps = 0;
  double p2m_write_latency_ns = 0;
  double p2m_write_gbps = 0;
  double p2m_read_gbps = 0;
  double total_mem_gbps = 0;
  double row_miss_ratio = 0;
  double o_rpq = 0;

  /// Regime vs the isolated predictions (computed by predict()).
  core::Regime regime = core::Regime::kNone;
  double c2m_degradation = 1.0;
  double p2m_degradation = 1.0;
};

/// Predict the colocated equilibrium; also solves the two isolated
/// sub-problems to report degradations and the regime.
Prediction predict(const core::HostConfig& host, const PredictorWorkload& wl,
                   const Constants& constants = {});

}  // namespace hostnet::analytic
