// flow::DomainRegistry -- the host-wide index of every CreditPool, keyed by
// the paper's credit domains (DESIGN.md section 4d).
//
// Components register their pools at construction: domain-tagged pools are
// the four bottleneck domains of section 4 (the cores' LFB pools under
// C2M-Read, their write-phase pools under C2M-Write, each IIO stack's
// read/write buffers under P2M-Read/Write); interior pools (CHA trackers,
// MC queues) are registered untagged -- they are audited and reset with
// everyone else but are not themselves domain credit pools.
//
// HostSystem::collect() walks the registry to fill Metrics, and observe()
// derives a core::DomainObservation uniformly for any domain: latency is
// the completion-weighted mean across the domain's pools, occupancy is
// either summed (pools are disjoint buffers: P2M stacks, write phases) or
// averaged per pool (the paper reports per-core LFB occupancy), and
// throughput follows from pool completions over the window. Iteration is
// always registration order, which is construction order -- deterministic
// and stable, so float accumulation order never depends on container
// internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/domains.hpp"
#include "flow/credit_pool.hpp"

namespace hostnet::flow {

/// How observe() aggregates pool occupancies into credits_in_use.
enum class OccAggregation : std::uint8_t {
  kMean,  ///< per-pool average (paper reports per-core LFB occupancy)
  kSum,   ///< pools are disjoint buffers of one domain (IIO stacks)
};

class DomainRegistry {
 public:
  struct Entry {
    bool has_domain = false;
    core::Domain domain = core::Domain::kC2MRead;
    std::string name;  ///< e.g. "cpu0.lfb", "iio0.write-credits"
    CreditPool* pool = nullptr;
  };

  /// Register a pool as (part of) one of the paper's credit domains.
  void add(core::Domain domain, std::string name, CreditPool* pool) {
    entries_.push_back(Entry{true, domain, std::move(name), pool});
  }

  /// Register an interior pool (CHA tracker, MC queue): audited and reset
  /// with the rest, but not a domain credit pool.
  void add_interior(std::string name, CreditPool* pool) {
    entries_.push_back(Entry{false, core::Domain::kC2MRead, std::move(name), pool});
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Visit the pools of `domain` in registration order.
  template <typename F>
  void for_each(core::Domain domain, F&& f) const {
    for (const Entry& e : entries_)
      if (e.has_domain && e.domain == domain) f(e);
  }

  /// Derive the domain's observation from its pools' stations: latency is
  /// the completion-weighted mean, max credits the pool-wise max, and
  /// throughput the pooled completions over the window (one cacheline per
  /// credit). C2M throughputs are overridden by the caller from DRAM line
  /// counters (LFB completions mix reads and write phases).
  core::DomainObservation observe(core::Domain domain, Tick now, Tick window,
                                  OccAggregation agg) const {
    core::DomainObservation o;
    double lat_sum = 0;
    double occ_sum = 0;
    std::uint64_t completions = 0;
    std::int64_t max_occ = 0;
    std::size_t pools = 0;
    for (const Entry& e : entries_) {
      if (!e.has_domain || e.domain != domain) continue;
      const counters::LatencyStation& s = e.pool->station();
      if (s.completions() > 0) {
        lat_sum += s.mean_latency_ns() * static_cast<double>(s.completions());
        completions += s.completions();
      }
      occ_sum += s.avg_occupancy(now);
      max_occ = std::max(max_occ, s.max_occupancy());
      ++pools;
    }
    if (completions > 0) o.latency_ns = lat_sum / static_cast<double>(completions);
    o.credits_in_use = agg == OccAggregation::kMean
                           ? (pools == 0 ? 0.0 : occ_sum / static_cast<double>(pools))
                           : occ_sum;
    o.max_credits_used = static_cast<double>(max_occ);
    if (window > 0)
      o.throughput_gbps = gb_per_s(completions * kCachelineBytes, window);
    return o;
  }

  /// Checked-build audit of every registered pool's ledger.
  void verify() const {
    for (const Entry& e : entries_) e.pool->verify();
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace hostnet::flow
