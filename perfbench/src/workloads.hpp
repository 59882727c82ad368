// The benchmark's workloads: input generation from the seed and the timed
// calls into the library. See perfbench/README.md for why each was chosen.
//
//   q1_sweep    paper quadrant 1 (C2M-Read + P2M-Write, Figs 3/7): one cold
//               HostSystem window per operation, c2m_read cores beside an
//               fio_p2m_write device, core count cycling 1/2/4/8.
//   q4_sweep    quadrant 4 (C2M-ReadWrite + P2M-Read, Figs 13/14): the same
//               loop with c2m_read_write cores beside fio_p2m_read.
//   fleet_fork  one fleet::run_fleet call per operation on a generated
//               scenario whose replicas fork from warm checkpoints.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/host_system.hpp"
#include "fleet/scenario.hpp"
#include "mc/channel.hpp"
#include "spans.hpp"

namespace perfbench {

// -- colocation sweeps --------------------------------------------------------

enum class Quadrant { kQ1, kQ4 };

/// Window shape (simulated time). The core count cycles 1/2/4/8 across the
/// blue->red onset; each count gets the measure length that makes its
/// window cost about the same host time (~80 ms on a 2.0 GHz Xeon VM core),
/// so window_ms percentiles describe one population instead of falling in
/// the gaps between four. Indexed [quadrant][position in the cycle].
inline constexpr double kSweepWarmupUs = 40;
inline constexpr std::array<std::uint32_t, 4> kCoreCycle = {1, 2, 4, 8};
inline constexpr std::array<std::array<double, 4>, 2> kSweepMeasureUs = {{
    {280, 190, 120, 125},  // Q1
    {185, 135, 120, 115},  // Q4: C2M writes cost more host time per simulated us
}};

/// Everything one window needs; a pure function of (seed, window index).
struct WindowInput {
  Quadrant quadrant = Quadrant::kQ1;
  std::uint32_t cores = 1;
  double measure_us = 0;
  std::uint64_t host_seed = 1;
};

WindowInput sweep_input(Quadrant q, std::uint64_t seed, std::uint64_t index);

/// A finished window. The host stays alive so the traced run can time a
/// save_state/restore of it after the operation.
struct WindowRun {
  std::unique_ptr<hostnet::core::HostSystem> host;
  hostnet::core::Metrics metrics;
  std::uint64_t events_warmup = 0;  ///< events executed by run(warmup, 0)
  std::uint64_t events = 0;         ///< events executed by the whole window
  hostnet::mc::Channel::KickStats kicks;  ///< summed over channels
};

/// Build, warm, measure and collect one cold window, recording a span
/// around each library call.
WindowRun run_window(const WindowInput& in, SpanLog& spans);

// -- forked fleet -------------------------------------------------------------

/// Window shape and size of the generated fleet.
inline constexpr double kFleetWarmupUs = 40;
inline constexpr double kFleetMeasureUs = 80;
inline constexpr double kFleetJitterPct = 20;
inline constexpr std::uint64_t kFleetReplicas = 3;

/// Scenario text for `seed`. The structure (templates, tenants, replicas,
/// window shape) is fixed, so every seed asks for the same amount of work;
/// the seed picks the scenario and template seeds, which set every RNG
/// stream and the per-host measurement jitter.
std::string fleet_scenario_text(std::uint64_t seed);

/// Tenants whose mean fleet score is a TCP stack's goodput, and the stack.
inline constexpr std::array<std::array<const char*, 2>, 3> kTcpTenants = {
    {{"tenant-dctcp", "dctcp"}, {"tenant-bbr", "bbr"}, {"tenant-davis", "davis"}}};

/// Simulated time (us) one fork-mode run_fleet executes: every window of a
/// template's first host runs cold (warmup + measure), every later replica
/// forks and runs its measure window only.
double fleet_simulated_us(const hostnet::fleet::Scenario& sc,
                          const std::vector<hostnet::fleet::HostInstance>& hosts);

/// Windows one run_fleet simulates (three per two-sided host).
std::uint64_t fleet_windows(const hostnet::fleet::Scenario& sc,
                            const std::vector<hostnet::fleet::HostInstance>& hosts);

}  // namespace perfbench
