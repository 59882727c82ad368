// fleet::Scenario -- a declarative, dependency-free text format describing a
// fleet of hosts: host templates (preset + config overrides + tenant
// workload mixes + device placements) and how many hosts run each template.
// The ROADMAP's "millions of users" direction starts here: capacity
// questions ("which colocation mixes keep the fleet out of the red
// regime?") become one scenario file fed to fleet::run_fleet (runner.hpp).
//
// Format (line-oriented; '#' starts a comment; indentation is ignored):
//
//   fleet <name>                      # required header, first directive
//   seed <u64>                        # default 1
//   warmup_us <f> | measure_us <f>    # window defaults (HOSTNET_* env still
//                                     #   applies when these are omitted;
//                                     #   warmup >= 0, measure > 0)
//   measure_jitter_pct <f>            # per-host measurement-window jitter
//
//   template <name>                   # a host configuration to replicate
//     preset cascade-lake|ice-lake    # Table-1 testbed base (default CLX)
//     set <key> <value>               # HostConfig override (see kSetKeys)
//     set tcp.stack dctcp|bbr|davis   # CC stack for a tcp_* p2m placement
//     seed <u64>                      # per-template seed override
//     c2m <tenant> <workload> [cores=<n>]   # compute tenant placement
//     p2m <tenant> <workload>               # peripheral tenant placement
//   end
//
//   hosts <count> <template>          # replicate; repeatable, any template
//
// C2M workloads: c2m_read, c2m_read_write, redis_read, redis_write,
// gapbs_pr, gapbs_bc. P2M workloads: fio_write, fio_read, fio_4k_qd1
// (storage DMA; workloads/workloads.hpp), rdma_write (a RoCE NIC with PFC;
// net/rdma.hpp), rdma_read (ib_read_bw, a line-rate DMA reader), or
// tcp_dctcp, tcp_bbr, tcp_davis (a full net::TcpReceiver behind the named
// congestion-control stack; net/tcp_stack.hpp). `set tcp.stack` rewrites
// a tcp_* placement's stack -- handy for templates that differ only in
// CC -- and is an error without one. fio link rates follow the template's
// PCIe config, so specs are built when the template's `end` is reached.
//
// Replicas of a template are bit-identical simulations (same seed by
// design: that is what lets the runner simulate them once; see runner.hpp).
// `measure_jitter_pct` staggers only each host's measurement-window length
// -- a deterministic per-host-index draw -- which preserves the shared
// construction+warmup prefix (same core::config_fingerprint) while forcing
// distinct measurement windows, i.e. real checkpoint forks per host.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/presets.hpp"

namespace hostnet::fleet {

/// Parse or validation failure, tagged with the 1-based scenario line.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(std::size_t line, const std::string& what)
      : std::runtime_error("scenario line " + std::to_string(line) + ": " + what), line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Sentinel for "no tenant on this side of the host".
inline constexpr std::uint32_t kNoTenant = 0xFFFFFFFFu;

/// One host configuration to replicate: the fully-resolved core:: specs.
struct HostTemplate {
  std::string name;
  std::string preset = "cascade-lake";
  core::HostConfig host = core::cascade_lake();
  std::optional<core::C2MSpec> c2m;
  std::optional<core::P2MSpec> p2m;
  std::uint32_t c2m_tenant = kNoTenant;  ///< index into Scenario::tenants()
  std::uint32_t p2m_tenant = kNoTenant;
  std::uint64_t seed = 1;
};

/// `hosts <count> <template>` directive, resolved to a template index.
struct HostGroup {
  std::size_t tmpl = 0;
  std::uint64_t count = 0;
};

/// One concrete host of the expanded fleet. Everything the runner needs is
/// either here or in the referenced template; `opt` carries the per-host
/// (possibly jittered) measurement window.
struct HostInstance {
  std::uint64_t index = 0;  ///< fleet-wide host id (expansion order)
  std::size_t tmpl = 0;     ///< index into Scenario::templates()
  core::RunOptions opt;
};

class Scenario {
 public:
  /// Parse scenario text; throws ScenarioError on the first problem.
  static Scenario parse(std::string_view text);

  /// Read `path` and parse it; throws std::runtime_error if unreadable.
  static Scenario load(const std::string& path);

  const std::string& name() const { return name_; }
  const std::vector<HostTemplate>& templates() const { return templates_; }
  const std::vector<HostGroup>& groups() const { return groups_; }
  /// Tenant names in first-appearance order (stable ids for aggregation).
  const std::vector<std::string>& tenants() const { return tenants_; }
  const core::RunOptions& base_options() const { return base_opt_; }
  double measure_jitter_pct() const { return measure_jitter_pct_; }

  std::uint64_t total_hosts() const {
    std::uint64_t n = 0;
    for (const HostGroup& g : groups_) n += g.count;
    return n;
  }

  /// Expand the groups into per-host instances (expansion order = group
  /// order, replicas in sequence). Deterministic: the measurement-window
  /// jitter is drawn from a seeded stream keyed only by (scenario seed,
  /// host index), so expand() is a pure function of the scenario text.
  std::vector<HostInstance> expand() const;

 private:
  friend class ScenarioParser;
  std::string name_;
  std::vector<HostTemplate> templates_;
  std::vector<HostGroup> groups_;
  std::vector<std::string> tenants_;
  core::RunOptions base_opt_ = core::default_run_options();
  double measure_jitter_pct_ = 0;
  std::uint64_t seed_ = 1;
};

}  // namespace hostnet::fleet
