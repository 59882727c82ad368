// The experiment executor: run a C2M workload and a P2M workload in
// isolation and colocated, and report per-side performance degradation --
// the measurement protocol behind every figure in the paper -- as a Plan of
// measurement windows handed to one execute().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "common/histogram.hpp"
#include "core/domains.hpp"
#include "core/host_system.hpp"
#include "core/hostcc.hpp"
#include "core/metrics.hpp"
#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "iio/storage_device.hpp"
#include "net/dctcp.hpp"
#include "net/nic_device.hpp"

namespace hostnet::core {

struct C2MSpec {
  std::string name = "c2m";  ///< display name; resolve() resets it
  cpu::CoreWorkload workload{};
  std::uint32_t cores = 1;
  /// When true, core i's region is workload.region shifted by i strides
  /// (independent address spaces, e.g. Redis shards / STREAM buffers);
  /// when false all cores share workload.region (e.g. one GAPBS graph).
  bool per_core_region = true;
  std::uint64_t region_stride = 1ull << 30;
  /// Pace these cores with a hostCC controller (section 7), built on the
  /// window's host after every other placement.
  std::optional<hostcc::HostccConfig> hostcc{};
  HOSTNET_FIELDS(C2MSpec, name, workload, cores, per_core_region, region_stride, hostcc)
};

// -- P2M transports --------------------------------------------------------------
//
// The network case studies -- a family of TCP congestion-control stacks
// (net::TcpStack) and an RDMA-write NIC with PFC -- are P2M placements like
// storage: the window's host owns the NIC or TCP receiver a P2MSpec places.

/// RDMA write placement (ib_write_bw): a RoCE NIC with PFC generating
/// line-rate inbound DMA writes at its wire rate, the one knob it exposes.
/// The host's add_nic() supplies the DMA rate (HostConfig::pcie_write_gb_per_s).
struct RdmaWriteSpec {
  double wire_gb_per_s = 12.25;  ///< ~98 Gbps effective
  HOSTNET_FIELDS(RdmaWriteSpec, wire_gb_per_s)

  /// The RoCE NIC: this wire rate, 4 KB MTU, line-rate arrivals and PFC;
  /// the RX buffer and pause thresholds keep net::NicConfig's defaults.
  net::NicConfig nic() const {
    net::NicConfig n;
    n.wire_gb_per_s = wire_gb_per_s;
    n.mtu_bytes = 4096;
    n.autonomous = true;
    n.pfc = true;
    return n;
  }
};

struct P2MSpec {
  std::string name = "p2m";  ///< display name; resolve() resets it
  std::optional<iio::StorageConfig> storage{};
  /// A second storage device, as on hosts with "multiple IIOs" (section 7):
  /// on an IIO stack of its own (a copy of the host's) when `second_stack`,
  /// else beside `storage` on stack 0.
  std::optional<iio::StorageConfig> second_storage{};
  bool second_stack = false;
  /// TCP receiver placement (DMA writes through the IIO, like storage
  /// writes, plus kernel-copy C2M traffic). Scored by transport goodput.
  std::optional<net::TcpConfig> tcp{};
  /// RDMA write placement, scored by the bytes the NIC accepts off the wire.
  /// (RDMA read is a storage placement: workloads::rdma_read.)
  std::optional<RdmaWriteSpec> rdma_write{};
  HOSTNET_FIELDS(P2MSpec, name, storage, second_storage, second_stack, tcp, rdma_write)
};

struct RunOptions {
  Tick warmup = us(400);
  Tick measure = us(1500);
  std::uint64_t seed = 1;
};

/// Reads the default measurement window, honoring HOSTNET_MEASURE_US and
/// HOSTNET_WARMUP_US environment overrides (useful to shorten CI runs).
/// Throws std::invalid_argument naming the variable when an override is not
/// a number, the measure window is not positive or the warmup is negative.
RunOptions default_run_options();

/// The window check default_run_options() and the fleet scenario parser
/// share: `v` microseconds as ticks. Throws std::invalid_argument naming
/// `what` unless `v` is finite, non-negative, representable, and at least
/// one tick when !allow_zero (a measure window; a warmup may be 0).
Tick window_ticks(double v, bool allow_zero, const std::string& what);

struct RunOutcome {
  Metrics metrics{};
  double c2m_score = 0;       ///< queries/s (episodic) or core read GB/s
  double p2m_score = 0;       ///< device DMA GB/s, or the transport's goodput
  net::TransportOutcome transport{};  ///< the transport placement's telemetry (zero without one)
  /// Each domain's per-request latencies over the window, indexed by Domain
  /// (all of the domain's pools merged: every core's LFB, every IIO stack).
  std::array<LatencyHistogram, mem::kNumTrafficClasses> latency{};
  double hostcc_throttle = 0;  ///< hostCC's window-average throttle (0 without one)
};

/// How execute() groups a plan's windows into jobs (DESIGN.md section 4e).
enum class SweepMode : std::uint8_t {
  kFork,  ///< one job per fingerprint: warm once, read shorter windows on the way to the longest
  kCold,  ///< one job per distinct window: build + warm each (the reference)
};

/// A window's configuration as its components are built with it: the
/// inputs with every leaf no component reads reset to its default, plus the
/// configs derived from them (DESIGN.md section 4e). place() builds a
/// window's host only from it and config_fingerprint() encodes it, so the
/// key is what runs.
struct Resolved {
  HostConfig host;
  std::optional<C2MSpec> c2m;
  std::optional<P2MSpec> p2m;
  /// The TCP receiver's copy cores (engaged with p2m->tcp): copy_core_config().
  std::optional<cpu::CoreConfig> copy_core;
  HOSTNET_FIELDS(Resolved, host, c2m, p2m, copy_core)
};

/// A TCP receiver's copy cores: the host's cores with an LFB of
/// tcp.copy_width entries.
cpu::CoreConfig copy_core_config(const HostConfig& host, const net::TcpConfig& tcp);

/// Resolve a window's inputs. Pure. Resets, because no component reads
/// them:
///   * the display names HostConfig::name, C2MSpec::name and P2MSpec::name;
///   * P2MSpec::second_stack when there is no second_storage;
///   * TcpConfig::dctcp_g under any stack but DCTCP;
///   * a NIC's pause_threshold and resume_threshold when its pfc is off.
/// Throws std::invalid_argument when `p2m` places both a TCP and an
/// RDMA-write transport.
Resolved resolve(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                 const std::optional<P2MSpec>& p2m);

/// Canonical fingerprint of one simulation configuration: every leaf of
/// resolve(host, c2m, p2m) plus seed and warmup, encoded field by field
/// (never whole-struct memcpy -- padding bytes are indeterminate). Equal
/// fingerprints guarantee identical construction and warmup; execute()'s
/// job key and the fleet's fold-group key.
std::string config_fingerprint(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                               const std::optional<P2MSpec>& p2m, std::uint64_t seed,
                               Tick warmup);

/// One measurement window: build `host` with the placed workloads, warm for
/// opt.warmup, measure for opt.measure.
struct Window {
  HostConfig host;
  std::optional<C2MSpec> c2m;
  std::optional<P2MSpec> p2m;
  RunOptions opt;
};

struct ColocationOutcome {
  RunOutcome iso_c2m;
  RunOutcome iso_p2m;
  RunOutcome colo;

  /// Ratio of isolated to colocated performance (>= ~1; higher = worse).
  double c2m_degradation() const {
    return colo.c2m_score > 0 ? iso_c2m.c2m_score / colo.c2m_score : 0;
  }
  double p2m_degradation() const {
    return colo.p2m_score > 0 ? iso_p2m.p2m_score / colo.p2m_score : 0;
  }
  Regime regime() const { return classify_regime(c2m_degradation(), p2m_degradation()); }
};

// -- the experiment executor (DESIGN.md sections 4a and 4e) -------------------
//
// Every figure measures windows: a C2M and a P2M workload isolated and
// colocated, usually across a sweep. A Plan lists the windows; execute()
// decides which of them are the same simulation, which share a warmup, and
// where they run:
//   * identical windows (same fingerprint and measure length) are simulated
//     once -- e.g. the iso-P2M window every point of a core sweep shares;
//   * under kFork a job is every window of one config_fingerprint(). Its
//     distinct windows differ only in measure length, so each shorter one
//     is a prefix of the longest: the job warms one host, then runs it on
//     through its windows in ascending measure, collecting at each
//     boundary. Under kCold a job is one distinct window. Jobs run on the
//     run_parallel worker pool, and a job's host is freed when the job ends;
//   * outcomes come back in plan order, bit-identical for any thread count
//     and for cold vs fork: the simulation is deterministic, run_until()
//     drains every event at or before a boundary, and collect() is a pure
//     read, so a run read at each boundary is the run straight to the end.
//
// Warmup-sharing caveat: two windows share a warmup ONLY when their
// fingerprints -- a canonical encoding of the resolved config, seed and
// warmup -- match exactly. Any differing leaf that a component reads, seed
// or warmup length gives a different fingerprint and its own warmup; a
// leaf resolve() resets (a display name, say) does not. Outcomes::cache
// counts what was shared.

/// Indices of one colocation's windows in a Plan. A single-sided placement
/// has one window: `colo` aliases it and the missing side is kNone (its
/// outcome reads as a default RunOutcome).
struct ColocationRef {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t iso_c2m = kNone;
  std::size_t iso_p2m = kNone;
  std::size_t colo = kNone;
};

/// An ordered list of measurement windows.
class Plan {
 public:
  /// Append one window; returns its index.
  std::size_t add(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                  const std::optional<P2MSpec>& p2m, const RunOptions& opt);

  /// Append the colocation protocol: the iso-C2M, iso-P2M and colocated
  /// windows, or the lone window of a single-sided placement.
  ColocationRef colocation(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                           const std::optional<P2MSpec>& p2m, const RunOptions& opt);

  /// Sweep the number of C2M cores (the x-axis of most paper figures): one
  /// iso-P2M window shared by every point, then per count the iso-C2M and
  /// colocated windows.
  std::vector<ColocationRef> core_sweep(const HostConfig& host, C2MSpec c2m,
                                        const P2MSpec& p2m,
                                        const std::vector<std::uint32_t>& cores,
                                        const RunOptions& opt);

  const std::vector<Window>& windows() const { return windows_; }
  std::size_t size() const { return windows_.size(); }

 private:
  std::vector<Window> windows_;
};

struct ExecOptions {
  /// Worker threads: 0 = parallel_threads() (HOSTNET_THREADS override, else
  /// hardware concurrency). Never changes results.
  unsigned threads = 0;
  SweepMode mode = SweepMode::kFork;
};

/// What execute() shared. Deterministic: a function of the plan and mode.
struct ExecStats {
  std::uint64_t checkpoint_hits = 0;    ///< windows continuing a job's warmed host (kFork)
  std::uint64_t checkpoint_misses = 0;  ///< jobs, each warming one fingerprint (kFork)
  std::uint64_t outcome_hits = 0;       ///< windows answered by an identical earlier window
};

/// The outcomes of a plan, one per window in plan order.
struct Outcomes {
  std::vector<RunOutcome> windows;
  ExecStats cache;

  const RunOutcome& operator[](std::size_t window) const { return windows[window]; }
  ColocationOutcome operator[](const ColocationRef& r) const;
};

/// Run every window of `plan` (see the section comment above).
Outcomes execute(const Plan& plan, const ExecOptions& opt = {});

}  // namespace hostnet::core
