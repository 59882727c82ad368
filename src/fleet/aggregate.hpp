// fleet::Aggregate -- the reduction of per-host outcomes into a fleet-level
// report: per-tenant latency histograms (fixed log-bucketed bins; p50/p99
// read out at the end), throughput and degradation sums, and blue/red
// regime counts. The runner holds the executor's per-window outcomes
// (O(windows)) until the fold; the fold itself keeps one FleetAggregate per
// template-fingerprint group and merges them at the end -- O(groups x
// tenants).
//
// Determinism contract: add_host() is called in host-index order within a
// group and groups merge in group order (first appearance in the fleet), so
// every float accumulates in a fixed order regardless of thread count or
// fork vs cold execution -- fleet reports are bit-identical serial vs
// parallel (tests/test_fleet.cpp pins this).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "core/domains.hpp"
#include "core/experiment.hpp"
#include "fleet/scenario.hpp"

namespace hostnet::fleet {

/// Per-tenant slice of the fleet: one entry per scenario tenant, indexed by
/// the tenant ids Scenario::tenants() assigns.
struct TenantAggregate {
  std::uint64_t placements = 0;    ///< host slots running this tenant
  double colo_score_sum = 0;       ///< colocated app score (GB/s or q/s)
  double iso_score_sum = 0;        ///< isolated score on the same host
  double degradation_sum = 0;      ///< iso/colo ratio (>= ~1)
  /// Colocated domain latency per host (ns), from the hosts whose window
  /// completed requests in that domain (empty when none did).
  LatencyHistogram latency;

  void merge(const TenantAggregate& o) {
    placements += o.placements;
    colo_score_sum += o.colo_score_sum;
    iso_score_sum += o.iso_score_sum;
    degradation_sum += o.degradation_sum;
    latency.merge(o.latency);
  }

  double mean_degradation() const {
    return placements ? degradation_sum / static_cast<double>(placements) : 0.0;
  }
};

struct FleetAggregate {
  std::vector<TenantAggregate> tenants;            ///< indexed by tenant id
  std::array<std::uint64_t, 3> regimes{};          ///< none/blue/red host counts
  std::uint64_t hosts = 0;
  double total_mem_gbps_sum = 0;                   ///< colocated DRAM BW per host

  FleetAggregate() = default;
  explicit FleetAggregate(std::size_t n_tenants) : tenants(n_tenants) {}

  /// Fold one host's colocation outcome in. `tmpl` names the tenants and
  /// the P2M direction (which domain's latency the P2M tenant observes).
  void add_host(const HostTemplate& tmpl, const core::ColocationOutcome& o) {
    ++hosts;
    ++regimes[static_cast<std::size_t>(host_regime(tmpl, o))];
    total_mem_gbps_sum += o.colo.metrics.total_mem_gbps();
    if (tmpl.c2m_tenant != kNoTenant) {
      TenantAggregate& t = tenants[tmpl.c2m_tenant];
      ++t.placements;
      t.colo_score_sum += o.colo.c2m_score;
      t.iso_score_sum += o.iso_c2m.c2m_score;
      t.degradation_sum += o.c2m_degradation();
      add_latency(t, o.colo.metrics.c2m_read);
    }
    if (tmpl.p2m_tenant != kNoTenant) {
      TenantAggregate& t = tenants[tmpl.p2m_tenant];
      ++t.placements;
      t.colo_score_sum += o.colo.p2m_score;
      t.iso_score_sum += o.iso_p2m.p2m_score;
      t.degradation_sum += o.p2m_degradation();
      // TCP receivers are DMA-write tenants (the NIC writes packets toward
      // memory), as are fio_write-style storage placements.
      const bool dma_writes =
          tmpl.p2m && (tmpl.p2m->tcp || (tmpl.p2m->storage &&
                                         tmpl.p2m->storage->host_op == mem::Op::kWrite));
      add_latency(t, dma_writes ? o.colo.metrics.p2m_write : o.colo.metrics.p2m_read);
    }
  }

  void merge(const FleetAggregate& o) {
    if (tenants.size() < o.tenants.size()) tenants.resize(o.tenants.size());
    for (std::size_t i = 0; i < o.tenants.size(); ++i) tenants[i].merge(o.tenants[i]);
    for (std::size_t i = 0; i < regimes.size(); ++i) regimes[i] += o.regimes[i];
    hosts += o.hosts;
    total_mem_gbps_sum += o.total_mem_gbps_sum;
  }

  std::uint64_t regime_count(core::Regime r) const {
    return regimes[static_cast<std::size_t>(r)];
  }

 private:
  /// A window that completed nothing in the domain has no latency:
  /// observe() leaves latency_ns at 0 then, which would land in the lowest
  /// bucket and report the tenant as the fastest in the fleet.
  static void add_latency(TenantAggregate& t, const core::DomainObservation& d) {
    if (d.latency_ns > 0) t.latency.add(d.latency_ns);
  }

  /// Single-sided hosts never colocate, so their regime is kNone by
  /// definition; two-sided hosts classify from the degradation ratios
  /// exactly like the paper's protocol.
  static core::Regime host_regime(const HostTemplate& tmpl, const core::ColocationOutcome& o) {
    if (tmpl.c2m_tenant == kNoTenant || tmpl.p2m_tenant == kNoTenant) return core::Regime::kNone;
    return o.regime();
  }
};

}  // namespace hostnet::fleet
