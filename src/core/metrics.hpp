// Aggregated measurement snapshot of one experiment window: the simulated
// equivalent of everything the paper measures with uncore PMU counters,
// plus application-level throughput.
#pragma once

#include <array>
#include <cstdint>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/domains.hpp"
#include "mem/request.hpp"

namespace hostnet::core {

struct Metrics {
  double window_ns = 0;
  std::uint32_t channels = 0;   ///< memory channels in the host
  std::uint32_t c2m_cores = 0;  ///< cores generating C2M traffic

  // -- memory bandwidth served by DRAM, split by traffic class (GB/s) -------
  std::array<double, mem::kNumTrafficClasses> mem_gbps{};
  double c2m_mem_gbps() const {
    return mem_gbps[0] + mem_gbps[1];  // C2M read + write
  }
  double p2m_mem_gbps() const { return mem_gbps[2] + mem_gbps[3]; }
  double total_mem_gbps() const { return c2m_mem_gbps() + p2m_mem_gbps(); }

  // -- domain observations ----------------------------------------------------
  DomainObservation c2m_read;   ///< LFB station (read-only workloads)
  DomainObservation c2m_write;  ///< core write station
  DomainObservation p2m_read;   ///< IIO read buffer
  DomainObservation p2m_write;  ///< IIO write buffer

  /// Uniform access to the four bottleneck domains (one per traffic class),
  /// so consumers (analytic::formula, benches) need not name the fields.
  const DomainObservation& domain(Domain d) const {
    switch (d) {
      case Domain::kC2MWrite: return c2m_write;
      case Domain::kP2MRead: return p2m_read;
      case Domain::kP2MWrite: return p2m_write;
      case Domain::kC2MRead: break;
    }
    return c2m_read;
  }
  double lfb_latency_ns = 0;        ///< avg LFB credit-hold time across C2M cores
  double lfb_littles_latency_ns = 0;
  double lfb_avg_occupancy = 0;     ///< per-core average
  std::int64_t lfb_max_occupancy = 0;

  // -- CHA measurements ---------------------------------------------------------
  double cha_dram_read_latency_c2m_ns = 0;  ///< "CHA->DRAM read latency"
  double cha_dram_read_latency_p2m_ns = 0;
  double cha_mc_write_latency_ns = 0;       ///< "CHA->MC write latency" (all writes)
  double p2m_reads_in_flight_at_cha = 0;    ///< avg; max below
  std::int64_t p2m_reads_in_flight_at_cha_max = 0;
  double n_waiting = 0;                     ///< writes awaiting WPQ admission (avg)
  std::array<double, mem::kNumTrafficClasses> cha_admission_wait_ns{};

  // -- MC / DRAM measurements ----------------------------------------------------
  double avg_rpq_occupancy = 0;   ///< mean across channels
  double avg_wpq_occupancy = 0;
  /// Share of the window the CHA write tracker holds more writes than its
  /// forward pipeline (cha::Cha::wpq_blocked_fraction): writes backed up
  /// behind WPQ admission, the measured stand-in for the paper's P_fill^WPQ.
  /// Not the time the WPQ itself sits at capacity.
  double wpq_full_fraction = 0;
  double row_miss_ratio_read = 0;
  double row_miss_ratio_write = 0;
  std::uint64_t mc_lines_read = 0;
  std::uint64_t mc_lines_written = 0;
  std::uint64_t mc_switch_cycles = 0;
  std::uint64_t mc_act_read = 0;
  std::uint64_t mc_act_write = 0;
  std::uint64_t mc_pre_conflict_read = 0;
  std::uint64_t mc_pre_conflict_write = 0;
  SampleSet bank_deviation;  ///< max/mean bank load per 1000-read window

  // -- application-level ---------------------------------------------------------
  std::uint64_t c2m_lines_read = 0;     ///< completed by cores
  std::uint64_t c2m_lines_written = 0;  ///< acknowledged by CHA
  double c2m_app_gbps = 0;              ///< core-completed read bytes / window
  double queries_per_sec = 0;           ///< episodic workloads
  double p2m_dev_gbps = 0;              ///< device-level DMA throughput
  double p2m_iops = 0;                  ///< device requests per second
};

}  // namespace hostnet::core
