// flow::DomainRegistry -- the host-wide index of every CreditPool, keyed by
// the paper's credit domains (DESIGN.md section 4d).
//
// build() derives it from a component's member table: every CreditPool
// reachable from the root (fields::for_each_reachable) is an entry, in table
// order, and its domain is the one its owner declared in its CreditPoolSpec
// -- the four bottleneck domains of section 4 (the cores' LFB pools under
// C2M-Read, their write-phase pools under C2M-Write, each IIO stack's
// read/write buffers under P2M-Read/Write). Every other pool (CHA
// trackers, MC queues, copy-core LFBs) is interior: audited with everyone
// else but not itself a domain credit pool. A pool cannot be left out, so
// there is no list to keep and no audit of one.
//
// HostSystem::collect() walks the registry to fill Metrics, and observe()
// derives a core::DomainObservation uniformly for any domain: latency is
// the completion-weighted mean across the domain's pools, occupancy is
// either summed (pools are disjoint buffers: P2M stacks, write phases) or
// averaged per pool (the paper reports per-core LFB occupancy), and
// throughput follows from pool completions over the window. Iteration is
// always table order -- within a domain, cores by index and IIO stacks by
// index -- so float accumulation order never depends on container
// internals.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fields.hpp"
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
    std::string name;  ///< the pool's path in the member table, e.g. "cores_[0].st_.lfb_pool"
    CreditPool* pool = nullptr;
    std::optional<core::Domain> domain() const { return pool->spec().domain; }
  };

  /// Index every CreditPool reachable from the component `root`, replacing
  /// any previous index.
  template <class C>
  void build(C& root) {
    entries_.clear();
    fields::for_each_reachable<CreditPool>(root, [this](const std::string& path, CreditPool& pool) {
      entries_.push_back(Entry{path, &pool});
    });
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Visit the pools of `domain` in table order.
  template <typename F>
  void for_each(core::Domain domain, F&& f) const {
    for (const Entry& e : entries_)
      if (e.domain() == domain) f(e);
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
      if (e.domain() != domain) continue;
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

  /// Checked-build audit of every listed pool's ledger.
  void verify() const {
    for (const Entry& e : entries_) e.pool->verify();
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace hostnet::flow
