// Tests for the section-6 analytical formula: algebra against hand-computed
// values, and end-to-end accuracy against the simulator.
#include <gtest/gtest.h>

#include "analytic/formula.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::analytic {
namespace {

dram::Timing cl_timing() { return dram::ddr4_2933(); }

TEST(Formula, ReadQueueingDelayHandComputed) {
  FormulaInputs in;
  in.o_rpq = 10.0;
  in.switches = 100;
  in.lines_read = 1000;
  in.lines_written = 500;
  in.act_read = 50;
  in.pre_conflict_read = 20;
  const auto b = read_queueing_delay(in, cl_timing());
  // Switching: 10 * (100/1000) * 10 ns = 10 ns
  EXPECT_NEAR(b.switching_ns, 10.0, 1e-9);
  // Write HoL: 10 * (500/1000) * 2.73 = 13.65 ns
  EXPECT_NEAR(b.hol_other_ns, 13.65, 1e-9);
  // Read HoL: 9 * 2.73 = 24.57 ns
  EXPECT_NEAR(b.hol_same_ns, 24.57, 1e-9);
  // Top of queue: (50/1000)*13.75 + (20/1000)*13.75 = 0.9625 ns
  EXPECT_NEAR(b.top_of_queue_ns, 0.9625, 1e-9);
  EXPECT_NEAR(b.total_ns(), 10.0 + 13.65 + 24.57 + 0.9625, 1e-9);
}

TEST(Formula, WriteWaitingTimeHandComputed) {
  FormulaInputs in;
  in.n_waiting = 50.0;
  in.switches = 200;
  in.lines_written = 2000;
  in.lines_read = 3000;
  in.act_write = 100;
  in.pre_conflict_write = 40;
  const auto b = write_waiting_time(in, cl_timing());
  // Switching: 50 * (200/2000) * tRTW(10) = 50 ns
  EXPECT_NEAR(b.switching_ns, 50.0, 1e-9);
  // Read HoL: 50 * (3000/2000) * 2.73 = 204.75 ns
  EXPECT_NEAR(b.hol_other_ns, 204.75, 1e-9);
  // Write HoL: 49 * 2.73 = 133.77 ns
  EXPECT_NEAR(b.hol_same_ns, 133.77, 1e-9);
  EXPECT_NEAR(b.top_of_queue_ns, (100.0 / 2000) * 13.75 + (40.0 / 2000) * 13.75, 1e-9);
}

TEST(Formula, WriteDomainLatencyGatedByPfill) {
  FormulaInputs in;
  in.n_waiting = 50.0;
  in.lines_written = 1000;
  in.lines_read = 1000;
  in.p_fill_wpq = 0.0;
  EXPECT_NEAR(write_domain_latency_ns(300.0, in, cl_timing()), 300.0, 1e-9);
  in.p_fill_wpq = 1.0;
  const double full = write_domain_latency_ns(300.0, in, cl_timing());
  in.p_fill_wpq = 0.5;
  const double half = write_domain_latency_ns(300.0, in, cl_timing());
  EXPECT_NEAR(half - 300.0, (full - 300.0) / 2, 1e-9);
}

TEST(Formula, EmptyInputsYieldConstants) {
  FormulaInputs in;  // all zeros
  EXPECT_NEAR(read_domain_latency_ns(70.0, in, cl_timing()), 70.0, 1e-9);
  EXPECT_NEAR(write_domain_latency_ns(300.0, in, cl_timing()), 300.0, 1e-9);
}

TEST(Formula, ThroughputEstimateIsDomainLaw) {
  EXPECT_NEAR(estimate_throughput_gbps(12, 70), 12.0 * 64 / 70, 1e-9);
  EXPECT_EQ(estimate_throughput_gbps(12, 0), 0.0);
}

TEST(Formula, InputsFromMetricsScalePerChannel) {
  core::Metrics m;
  m.channels = 2;
  m.mc_lines_read = 1000;
  m.mc_lines_written = 500;
  m.mc_switch_cycles = 10;
  m.mc_act_read = 100;
  m.mc_pre_conflict_read = 40;
  m.n_waiting = 80;
  m.avg_rpq_occupancy = 7;
  m.wpq_full_fraction = 0.4;
  const auto in = inputs_from_metrics(m);
  EXPECT_NEAR(in.lines_read, 500, 1e-9);
  EXPECT_NEAR(in.lines_written, 250, 1e-9);
  EXPECT_NEAR(in.switches, 5, 1e-9);
  EXPECT_NEAR(in.n_waiting, 40, 1e-9);
  EXPECT_NEAR(in.o_rpq, 7, 1e-9);       // already a per-channel average
  EXPECT_NEAR(in.p_fill_wpq, 0.4, 1e-9);
  // Ratios are channel-count invariant.
  EXPECT_NEAR(in.act_read / in.lines_read, 0.1, 1e-9);
}

TEST(Formula, ChaCorrectionOnlyWhenRequested) {
  core::Metrics m;
  m.channels = 2;
  m.c2m_cores = 1;
  m.c2m_read.credits_in_use = 12;  // the formula's credits source (registry)
  m.lfb_avg_occupancy = 12;        // legacy alias, kept in sync by collect()
  m.mc_lines_read = 1000;
  m.cha_admission_wait_ns[0] = 50.0;  // C2M-Read
  const Constants c;
  const auto plain = estimate(DomainKind::kC2MRead, m, cl_timing(), c);
  const auto fixed = estimate(DomainKind::kC2MRead, m, cl_timing(), c,
                              {.add_cha_admission_delay = true});
  EXPECT_EQ(plain.cha_admission_delay_ns, 0.0);
  EXPECT_NEAR(fixed.cha_admission_delay_ns, 50.0, 1e-9);
  EXPECT_GT(plain.throughput_gbps, fixed.throughput_gbps);
}

// ---------------------------------------------------------------------------
// End-to-end: formula vs simulator (the Figure 11 claim).
// ---------------------------------------------------------------------------

core::RunOptions fast() {
  core::RunOptions o;
  o.warmup = us(200);
  o.measure = us(800);
  return o;
}

TEST(FormulaAccuracy, Quadrant1C2MWithinBand) {
  const auto hc = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 4;
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(hc, workloads::p2m_region());
  core::Plan plan;
  plan.add(hc, c2m, p2m, fast());
  const auto m = core::execute(plan)[0].metrics;
  Constants c;
  c.c2m_read_ns = 69.0;
  const auto e = estimate(DomainKind::kC2MRead, m, hc.mc.timing, c);
  EXPECT_NEAR(relative_error_pct(e.throughput_gbps, m.c2m_read.throughput_gbps), 0.0, 12.0);
}

TEST(FormulaAccuracy, Quadrant1P2MWithinBand) {
  const auto hc = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 4;
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(hc, workloads::p2m_region());
  core::Plan plan;
  plan.add(hc, c2m, p2m, fast());
  const auto m = core::execute(plan)[0].metrics;
  Constants c;
  c.p2m_write_ns = 302.0;
  const auto e = estimate(DomainKind::kP2MWrite, m, hc.mc.timing, c);
  EXPECT_NEAR(relative_error_pct(e.throughput_gbps, m.p2m_write.throughput_gbps), 0.0, 10.0);
}

TEST(FormulaAccuracy, Quadrant3ChaCorrectionReducesError) {
  // The paper's Figure 11 story: beyond 4 C2M cores the plain formula
  // overestimates badly; adding the measured CHA admission delay fixes it.
  const auto hc = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  c2m.cores = 6;
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(hc, workloads::p2m_region());
  core::Plan plan;
  plan.add(hc, c2m, p2m, fast());
  const auto m = core::execute(plan)[0].metrics;
  Constants c;
  c.c2m_read_ns = 69.0;
  const auto plain = estimate(DomainKind::kC2MReadWrite, m, hc.mc.timing, c);
  const auto fixed = estimate(DomainKind::kC2MReadWrite, m, hc.mc.timing, c,
                              {.add_cha_admission_delay = true});
  const double e_plain =
      relative_error_pct(plain.throughput_gbps, m.c2m_read.throughput_gbps);
  const double e_fixed =
      relative_error_pct(fixed.throughput_gbps, m.c2m_read.throughput_gbps);
  EXPECT_GT(e_plain, 25.0);
  EXPECT_LT(std::abs(e_fixed), 20.0);
  EXPECT_LT(std::abs(e_fixed), std::abs(e_plain));
}

}  // namespace
}  // namespace hostnet::analytic
