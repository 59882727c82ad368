// Integration tests: the paper's headline phenomena must emerge from the
// simulator -- the blue regime (section 2.2 quadrants 1/2/4), the red
// regime (quadrant 3), and the root-cause signatures of section 5.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

RunOptions fast() {
  RunOptions o;
  o.warmup = us(200);
  o.measure = us(600);
  return o;
}

C2MSpec c2m_read_spec(std::uint32_t cores) {
  C2MSpec s;
  s.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  s.cores = cores;
  return s;
}

C2MSpec c2m_rw_spec(std::uint32_t cores) {
  C2MSpec s;
  s.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  s.cores = cores;
  return s;
}

P2MSpec p2m_write_spec(const HostConfig& hc) {
  P2MSpec s;
  s.storage = workloads::fio_p2m_write(hc, workloads::p2m_region());
  return s;
}

P2MSpec p2m_read_spec(const HostConfig& hc) {
  P2MSpec s;
  s.storage = workloads::fio_p2m_read(hc, workloads::p2m_region());
  return s;
}

/// The colocation protocol for one configuration, as a one-entry plan.
ColocationOutcome colocate(const HostConfig& hc, const C2MSpec& c2m, const P2MSpec& p2m) {
  Plan plan;
  const ColocationRef ref = plan.colocation(hc, c2m, p2m, fast());
  return execute(plan)[ref];
}

TEST(Regimes, Quadrant1IsBlue) {
  // C2M-Read + P2M-Write: C2M degrades even though memory bandwidth is far
  // from saturated; P2M is unaffected (spare domain credits).
  const HostConfig hc = cascade_lake();
  const auto o = colocate(hc, c2m_read_spec(2), p2m_write_spec(hc));
  EXPECT_GT(o.c2m_degradation(), 1.15);
  EXPECT_LT(o.p2m_degradation(), 1.05);
  EXPECT_EQ(o.regime(), Regime::kBlue);
  // Far from saturation: the surprise of the paper's section 2.1.
  EXPECT_LT(o.colo.metrics.total_mem_gbps(), 0.75 * hc.dram_peak_gb_per_s());
}

TEST(Regimes, Quadrant2IsBlueAndMilderThanQuadrant1) {
  const HostConfig hc = cascade_lake();
  const auto q1 = colocate(hc, c2m_read_spec(2), p2m_write_spec(hc));
  const auto q2 = colocate(hc, c2m_read_spec(2), p2m_read_spec(hc));
  EXPECT_LT(q2.p2m_degradation(), 1.05);
  EXPECT_LT(q2.c2m_degradation(), q1.c2m_degradation());
}

TEST(Regimes, Quadrant3TurnsRedOnceBandwidthSaturates) {
  const HostConfig hc = cascade_lake();
  const auto o = colocate(hc, c2m_rw_spec(4), p2m_write_spec(hc));
  EXPECT_GT(o.c2m_degradation(), 1.1);
  EXPECT_GT(o.p2m_degradation(), 1.3);
  EXPECT_EQ(o.regime(), Regime::kRed);
  // The paper's antagonism: P2M degrades more than C2M in the red regime.
  EXPECT_GT(o.p2m_degradation(), o.c2m_degradation());
}

TEST(Regimes, Quadrant3LowLoadIsStillBlueish) {
  // With one C2M core, P2M is unaffected (paper: "with 2 or fewer C2M
  // cores, similar to quadrants 1 and 2").
  const HostConfig hc = cascade_lake();
  const auto o = colocate(hc, c2m_rw_spec(1), p2m_write_spec(hc));
  EXPECT_LT(o.p2m_degradation(), 1.1);
}

TEST(Regimes, Quadrant4IsBlue) {
  const HostConfig hc = cascade_lake();
  const auto o = colocate(hc, c2m_rw_spec(3), p2m_read_spec(hc));
  EXPECT_GT(o.c2m_degradation(), 1.1);
  EXPECT_LT(o.p2m_degradation(), 1.06);
}

TEST(Regimes, BlueRegimeRootCauses) {
  // Section 5.1: colocation inflates C2M-Read domain latency via MC
  // queueing and row-miss increase, while domain credits stay pinned.
  const HostConfig hc = cascade_lake();
  Plan plan;
  plan.add(hc, c2m_read_spec(2), std::nullopt, fast());
  plan.add(hc, c2m_read_spec(2), p2m_write_spec(hc), fast());
  const Outcomes out = execute(plan);
  const RunOutcome& iso = out[0];
  const RunOutcome& colo = out[1];
  EXPECT_GT(colo.metrics.lfb_latency_ns, 1.15 * iso.metrics.lfb_latency_ns);
  EXPECT_GT(colo.metrics.avg_rpq_occupancy, iso.metrics.avg_rpq_occupancy);
  EXPECT_GT(colo.metrics.row_miss_ratio_read, 2.0 * iso.metrics.row_miss_ratio_read);
  EXPECT_EQ(colo.metrics.lfb_max_occupancy, 12);  // credits fully utilized
}

TEST(Regimes, BlueRegimeP2MHasSpareCredits) {
  // The P2M-Write domain tolerates latency inflation because its credits
  // are not fully utilized (~65 of 92 needed at PCIe line rate).
  const HostConfig hc = cascade_lake();
  Plan plan;
  plan.add(hc, c2m_read_spec(4), p2m_write_spec(hc), fast());
  const auto colo = execute(plan)[0];
  EXPECT_LT(colo.metrics.p2m_write.credits_in_use, 0.9 * hc.iio.write_credits);
  EXPECT_NEAR(colo.metrics.p2m_dev_gbps, 14.0, 0.5);
}

TEST(Regimes, RedRegimeWpqBackpressureSignature) {
  // Section 5.2: in the red regime the WPQ backpressures persistently and
  // the CHA write backlog (N_waiting) grows; P2M-Write latency inflates
  // and its credits pin at the IIO buffer size.
  const HostConfig hc = cascade_lake();
  Plan plan;
  plan.add(hc, c2m_rw_spec(1), p2m_write_spec(hc), fast());
  plan.add(hc, c2m_rw_spec(5), p2m_write_spec(hc), fast());
  const Outcomes out = execute(plan);
  const RunOutcome& lo = out[0];
  const RunOutcome& hi = out[1];
  EXPECT_GT(hi.metrics.wpq_full_fraction, 0.5);
  EXPECT_GT(hi.metrics.n_waiting, 10 * std::max(1.0, lo.metrics.n_waiting));
  EXPECT_GT(hi.metrics.p2m_write.latency_ns, 1.5 * lo.metrics.p2m_write.latency_ns);
  EXPECT_GT(hi.metrics.p2m_write.max_credits_used, 0.95 * hc.iio.write_credits);
}

TEST(Regimes, CzmWriteDomainShieldedFromMcBackpressure) {
  // Section 5.2's asymmetry: the C2M-Write domain (ends at the CHA) sees
  // far smaller latency inflation than the P2M-Write domain (spans the MC)
  // under write backlog.
  const HostConfig hc = cascade_lake();
  Plan plan;
  plan.add(hc, c2m_rw_spec(4), p2m_write_spec(hc), fast());
  const auto hi = execute(plan)[0];
  EXPECT_LT(hi.metrics.c2m_write.latency_ns, 0.5 * hi.metrics.p2m_write.latency_ns);
}

TEST(Regimes, RegimeClassifier) {
  EXPECT_EQ(classify_regime(1.0, 1.0), Regime::kNone);
  EXPECT_EQ(classify_regime(1.3, 1.0), Regime::kBlue);
  EXPECT_EQ(classify_regime(1.3, 1.4), Regime::kRed);
  EXPECT_EQ(to_string(Regime::kBlue), "blue");
}

TEST(Domains, ThroughputLawAlgebra) {
  // 12 credits at 70 ns -> ~11 GB/s; 92 at 300 ns -> ~19.6 GB/s.
  EXPECT_NEAR(max_throughput_gbps(12, 70), 10.97, 0.01);
  EXPECT_NEAR(max_throughput_gbps(92, 300), 19.63, 0.01);
  EXPECT_EQ(max_throughput_gbps(12, 0), 0.0);
  // The paper's spare-credit argument: 14 GB/s at 300 ns needs ~65 credits.
  EXPECT_NEAR(credits_needed(14.0, 300.0), 65.6, 0.1);
}

class QuadrantSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QuadrantSweep, P2MWriteNeverDegradesInQuadrant1) {
  // Property over the full core sweep: quadrant 1 stays blue.
  const HostConfig hc = cascade_lake();
  const auto o =
      colocate(hc, c2m_read_spec(GetParam()), p2m_write_spec(hc));
  EXPECT_LT(o.p2m_degradation(), 1.05) << GetParam() << " cores";
  EXPECT_GT(o.c2m_degradation(), 1.1) << GetParam() << " cores";
}

INSTANTIATE_TEST_SUITE_P(Cores, QuadrantSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace hostnet::core
