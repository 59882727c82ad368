#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

using hostnet::core::Domain;
using hostnet::core::DomainObservation;
using hostnet::core::Metrics;

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t metrics_digest(const Metrics& m) {
  Digest d;
  visit_metrics(m, [&](const char*, const auto& v) { d.add(v); });
  return d.value();
}

std::string simulated_report(const hostnet::fleet::Scenario& sc,
                             const hostnet::fleet::FleetReport& r) {
  std::istringstream in(hostnet::fleet::format_report(sc, r));
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("sweep-cache:", 0) != 0) out += line + "\n";
  return out;
}

std::uint64_t fleet_digest(const hostnet::fleet::Scenario& sc,
                           const hostnet::fleet::FleetReport& r) {
  Digest d;
  d.add(simulated_report(sc, r));
  d.add(r.hosts);
  d.add(static_cast<std::uint64_t>(r.fingerprints));
  d.add(r.agg.hosts);
  d.add(r.agg.total_mem_gbps_sum);
  for (std::uint64_t n : r.agg.regimes) d.add(n);
  for (const hostnet::fleet::TenantAggregate& t : r.agg.tenants) {
    d.add(t.placements);
    d.add(t.colo_score_sum);
    d.add(t.iso_score_sum);
    d.add(t.degradation_sum);
    d.add(t.latency.count());
    for (double q : {0.5, 0.9, 0.99, 0.999}) d.add(t.latency.quantile(q));
  }
  return d.value();
}

std::string check_laws(const Metrics& m) {
  static constexpr struct {
    Domain d;
    const char* name;
    bool little;
  } kDomains[] = {{Domain::kC2MRead, "c2m_read", false},
                  {Domain::kC2MWrite, "c2m_write", false},
                  {Domain::kP2MRead, "p2m_read", true},
                  {Domain::kP2MWrite, "p2m_write", true}};
  for (const auto& k : kDomains) {
    const DomainObservation& o = m.domain(k.d);
    if (o.throughput_gbps <= 0) continue;
    // C2M-Read occupancy is reported per core; the law is over all pools.
    const double n = k.d == Domain::kC2MRead ? o.credits_in_use * m.c2m_cores : o.credits_in_use;
    std::ostringstream why;
    why << k.name << ": T=" << o.throughput_gbps << " GB/s, N=" << n << ", L=" << o.latency_ns
        << " ns";
    if (!(o.latency_ns > 0) || !(n > 0)) return why.str() + ": traffic without occupancy or latency";
    const double bound = hostnet::core::max_throughput_gbps(n, o.latency_ns);
    if (o.throughput_gbps > bound * (1 + kLawSlack))
      return why.str() + ": violates T <= C*64/L (bound " + std::to_string(bound) + ")";
    const double little_n = hostnet::core::credits_needed(o.throughput_gbps, o.latency_ns);
    if (k.little && std::fabs(little_n - n) > kLittleTol * n)
      return why.str() + ": violates Little's law (T*L/64=" + std::to_string(little_n) + ")";
  }
  return {};
}

}  // namespace perfbench
