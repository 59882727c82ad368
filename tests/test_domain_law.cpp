// The paper's domain throughput law (section 4), checked against the
// DomainRegistry: for every registered credit pool that completed work in
// the window, the observed throughput must satisfy T <= C * 64 / L -- and,
// because C and L are measured as time-averaged occupancy and mean hold
// latency of the *same* pool, Little's law makes the bound tight (equality
// up to window-boundary effects) for the pool's own completions.
#include <gtest/gtest.h>

#include <string>

#include "core/host_system.hpp"
#include "flow/domain_registry.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

struct Scenario {
  std::string name;
  std::uint32_t read_cores;
  std::uint32_t rw_cores;
  bool p2m_write;
  bool p2m_read;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class DomainLawSweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(DomainLawSweep, EveryObservationSatisfiesTheLaw) {
  const Scenario sc = GetParam();
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, /*seed=*/7);
  std::uint32_t idx = 0;
  for (std::uint32_t i = 0; i < sc.read_cores; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(idx++)));
  for (std::uint32_t i = 0; i < sc.rw_cores; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(idx++)));
  if (sc.p2m_write)
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  if (sc.p2m_read) {
    auto dev = workloads::fio_p2m_read(hc, workloads::p2m_region());
    dev.region.base += 2ull << 30;
    host.add_storage(dev);
  }
  host.run(us(200), us(800));
  const Tick now = host.sim().now();
  const Tick window = us(800);

  const Domain kDomains[] = {Domain::kC2MRead, Domain::kC2MWrite,
                             Domain::kP2MRead, Domain::kP2MWrite};
  int checked = 0;
  for (Domain d : kDomains) {
    // Summed observation: disjoint pools of one domain carry additive
    // occupancy and completions, so the law applies to the aggregate too.
    struct {
      double occ = 0;
      double latency_weighted = 0;
      std::uint64_t completions = 0;
    } obs;
    host.domains().for_each(d, [&](const flow::DomainRegistry::Entry& e) {
      const auto& s = e.pool->station();
      obs.occ += s.avg_occupancy(now);
      if (s.completions() > 0) {
        obs.latency_weighted +=
            s.mean_latency_ns() * static_cast<double>(s.completions());
        obs.completions += s.completions();
      }
    });
    if (obs.completions == 0) continue;
    ++checked;
    const double latency_ns =
        obs.latency_weighted / static_cast<double>(obs.completions);
    const double throughput_gbps =
        gb_per_s(obs.completions * kCachelineBytes, window);
    const double bound_gbps =
        obs.occ * static_cast<double>(kCachelineBytes) / latency_ns;
    SCOPED_TRACE("domain " + std::to_string(static_cast<int>(d)) + " T=" +
                 std::to_string(throughput_gbps) + " bound=" +
                 std::to_string(bound_gbps));
    ASSERT_GT(latency_ns, 0.0);
    // The law proper (with headroom for boundary effects)...
    EXPECT_LE(throughput_gbps, bound_gbps * 1.20);
    // ...and tightness: the pool's own completions track the bound.
    EXPECT_GE(throughput_gbps, bound_gbps * 0.80);
  }
  const int expected = (sc.read_cores + sc.rw_cores > 0 ? 1 : 0) +
                       (sc.rw_cores > 0 ? 1 : 0) + (sc.p2m_write ? 1 : 0) +
                       (sc.p2m_read ? 1 : 0);
  EXPECT_EQ(checked, expected) << "scenario exercised unexpected domains";

  // The registry-derived Metrics must agree with the registry itself.
  Metrics m = host.collect();
  for (Domain d : kDomains) {
    const DomainObservation again = host.domains().observe(
        d, now, window,
        d == Domain::kC2MRead ? flow::OccAggregation::kMean
                              : flow::OccAggregation::kSum);
    EXPECT_DOUBLE_EQ(m.domain(d).credits_in_use, again.credits_in_use);
    EXPECT_DOUBLE_EQ(m.domain(d).latency_ns, again.latency_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig06Style, DomainLawSweep,
    ::testing::Values(Scenario{"c2m_read_4c", 4, 0, false, false},
                      Scenario{"c2m_rw_3c_p2m_write", 0, 3, true, false},
                      Scenario{"c2m_read_3c_p2m_read", 3, 0, false, true},
                      Scenario{"full_mix", 2, 2, true, true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hostnet::core
