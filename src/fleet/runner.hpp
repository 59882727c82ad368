// fleet::Runner -- simulate every host of a Scenario at fork-sweep speed.
//
// A real fleet is mostly hosts sharing a handful of configurations, so the
// runner is plan building plus a fold. Every host's colocation windows go
// into ONE core::Plan, and one core::execute() runs it: each distinct
// window (config fingerprint + measure length) is simulated once
// fleet-wide, and each window fingerprint is one job on the persistent
// core::run_parallel pool. Under kFork a job warms its fingerprint once and
// simulates its longest distinct window once, reading each shorter one (a
// distinct measurement window, e.g. under scenario measure jitter) at its
// boundary on the way; a bit-identical replica's window is simulated once
// and its outcome copied. So a 1000-host fleet with 10 distinct templates
// costs at most 30 warmups and 30 longest windows (three windows per
// template), not 3000 of each, and a window that several templates
// share -- the same iso-C2M placement beside different TCP stacks -- is
// warmed and simulated once (BM_FleetSweep reports the split).
//
// The outcomes are O(windows) until the fold. The fold groups hosts by
// template fingerprint (first-appearance order): each group folds its hosts
// into a fleet::FleetAggregate in host-index order, and the groups merge in
// group order afterwards -- a fixed float order, so reports are
// bit-identical for any thread count and for fork vs cold execution (both
// pinned by tests/test_fleet.cpp, ctest label `fleet`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"

namespace hostnet::fleet {

struct RunnerOptions {
  /// Worker threads for the window jobs: 0 = core::parallel_threads()
  /// (HOSTNET_THREADS override, else hardware concurrency). Thread count
  /// never changes results -- jobs and fold groups are by fingerprint, not
  /// by thread.
  unsigned threads = 0;
  /// Passed to core::execute. kFork (default): warm once per window
  /// fingerprint and fork every further distinct window from its
  /// checkpoint. kCold: build + warm every distinct window from scratch --
  /// the reference path the fork engine must match. Identical windows are
  /// simulated once in either mode.
  core::SweepMode mode = core::SweepMode::kFork;
};

struct FleetReport {
  std::string scenario;            ///< Scenario::name()
  std::uint64_t hosts = 0;
  std::size_t fingerprints = 0;    ///< distinct template fingerprints
  std::size_t shards = 0;          ///< fold groups: one per template fingerprint
  unsigned threads = 0;            ///< worker threads the run admitted
  FleetAggregate agg;
  core::ExecStats cache;           ///< the run's core::Outcomes::cache
};

/// Simulate the whole scenario and reduce it to a FleetReport.
FleetReport run_fleet(const Scenario& sc, const RunnerOptions& opt = {});

/// Render the report as the deterministic text table `hostnet_fleet` prints
/// (tenant rows in tenant-id order, then regime/cache summary lines).
std::string format_report(const Scenario& sc, const FleetReport& r);

}  // namespace hostnet::fleet
