// Tests for the section-7 future-work extensions: hostCC-style host
// congestion control, CHA isolation scheduling, the configuration-driven
// predictor, and the tail-latency histograms.
#include <gtest/gtest.h>

#include "analytic/predictor.hpp"
#include "common/histogram.hpp"
#include "core/experiment.hpp"
#include "core/hostcc.hpp"
#include "workloads/workloads.hpp"

namespace hostnet {
namespace {

core::RunOptions fast() {
  core::RunOptions o;
  o.warmup = us(200);
  o.measure = us(700);
  return o;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, ExactForSmallValues) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add(7.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.p50(), 8.0, 1.0);  // bucket upper bound
  EXPECT_NEAR(h.p999(), 8.0, 1.0);
}

TEST(LatencyHistogram, QuantilesOrdered) {
  LatencyHistogram h;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) h.add(static_cast<double>(rng.below(10000)));
  EXPECT_LE(h.p50(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
  // Uniform [0,10000): p50 ~ 5000, p99 ~ 9900 within bucket error (~6%).
  EXPECT_NEAR(h.p50(), 5000, 400);
  EXPECT_NEAR(h.p99(), 9900, 700);
}

TEST(LatencyHistogram, LogBucketsRelativeError) {
  LatencyHistogram h;
  for (double v : {100.0, 1000.0, 100000.0, 5e6}) {
    h.reset();
    h.add(v);
    EXPECT_NEAR(h.max(), v, v * 0.07) << v;
  }
}

TEST(LatencyHistogram, TailCapturedInStations) {
  // End-to-end: the P2M-Write station histogram shows red-regime tail.
  const auto hc = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  c2m.cores = 4;
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(hc, workloads::p2m_region());
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto wl = c2m.workload;
    wl.region.base += static_cast<std::uint64_t>(i) << 30;
    host.add_core(wl);
  }
  host.add_storage(*p2m.storage);
  host.run(us(200), us(600));
  const auto& h = host.iio().write_station().histogram();
  EXPECT_GT(h.count(), 1000u);
  EXPECT_GT(h.p99(), 1.3 * h.p50());  // heavy tail under write backlog
}

// ---------------------------------------------------------------------------
// hostCC
// ---------------------------------------------------------------------------

TEST(HostCC, ProtectsP2MInRedRegime) {
  const auto hc = core::cascade_lake();
  auto run = [&](bool with_cc) {
    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < 5; ++i)
      host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
    std::unique_ptr<hostcc::HostCongestionController> cc;
    if (with_cc) cc = std::make_unique<hostcc::HostCongestionController>(host, hostcc::HostccConfig{});
    host.run(us(300), us(800));
    const auto m = host.collect();
    return std::pair<double, double>{m.p2m_dev_gbps, m.c2m_app_gbps};
  };
  const auto [p2m_off, c2m_off] = run(false);
  const auto [p2m_on, c2m_on] = run(true);
  EXPECT_GT(p2m_on, p2m_off * 1.2);       // P2M substantially restored
  EXPECT_GT(p2m_on, 12.0);                // near PCIe line rate
  EXPECT_LT(c2m_on, c2m_off);             // paid with C2M throughput
  EXPECT_GT(c2m_on, 0.25 * c2m_off);      // ...but not starved
}

TEST(HostCC, IdleInBlueRegime) {
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 3; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  hostcc::HostCongestionController cc(host, {});
  host.run(us(300), us(800));
  EXPECT_LT(cc.avg_throttle(host.sim().now()), 0.05);
  EXPECT_NEAR(host.collect().p2m_dev_gbps, 14.0, 0.5);
}

// ---------------------------------------------------------------------------
// CHA isolation extensions
// ---------------------------------------------------------------------------

TEST(Isolation, PeripheralWritePriorityRestoresP2M) {
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  c2m.cores = 5;
  auto run = [&](bool priority) {
    core::HostConfig host = core::cascade_lake();
    host.cha.peripheral_write_priority = priority;
    host.cha.write_tracker_peripheral_reserve = priority ? 48 : 0;
    core::P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
    core::Plan plan;
    const core::ColocationRef ref = plan.colocation(host, c2m, p2m, fast());
    return core::execute(plan)[ref];
  };
  const auto base = run(false);
  const auto iso = run(true);
  EXPECT_GT(base.p2m_degradation(), 1.4);                        // red regime
  EXPECT_LT(iso.p2m_degradation(), base.p2m_degradation() * 0.8);  // protected
}

TEST(Isolation, ReserveBlocksOnlyCpuWrites) {
  // Unit-level: with the tracker fully reserved for peripherals, CPU writes
  // must be refused while peripheral writes still get in.
  core::HostConfig hc = core::cascade_lake();
  hc.cha.write_tracker = 8;
  hc.cha.write_tracker_peripheral_reserve = 8;
  core::HostSystem host(hc);
  mem::Request cpu_wr;
  cpu_wr.op = mem::Op::kWrite;
  cpu_wr.source = mem::Source::kCpu;
  mem::Request per_wr = cpu_wr;
  per_wr.source = mem::Source::kPeripheral;
  EXPECT_FALSE(host.cha().try_submit(cpu_wr));
  EXPECT_TRUE(host.cha().try_submit(per_wr));
}

// ---------------------------------------------------------------------------
// Multi-IIO stacks
// ---------------------------------------------------------------------------

TEST(MultiIio, StacksHaveIndependentCredits) {
  core::HostConfig hc = core::cascade_lake();
  core::HostSystem host(hc);
  const std::size_t b = host.add_iio_stack(hc.iio);
  EXPECT_EQ(host.iio_stacks(), 2u);
  EXPECT_EQ(b, 1u);
  // Saturate both stacks: each enforces its own 92-credit bound.
  auto dev = workloads::fio_p2m_write(hc, workloads::p2m_region());
  dev.link_gb_per_s = 64.0;
  host.add_storage(dev, 0);
  auto dev2 = dev;
  dev2.region.base += 2ull << 30;
  host.add_storage(dev2, 1);
  host.run(us(100), us(300));
  EXPECT_LE(host.iio(0).write_station().max_occupancy(), 92);
  EXPECT_LE(host.iio(1).write_station().max_occupancy(), 92);
  EXPECT_GT(host.iio(1).write_station().completions(), 0u);
  // Aggregated metrics cover both stacks.
  const auto m = host.collect();
  EXPECT_GT(m.p2m_write.credits_in_use, 100.0);
}

TEST(MultiIio, SplitStacksSurviveRedRegimeBetter) {
  auto run = [&](bool split) {
    core::HostConfig hc = core::cascade_lake();
    core::HostSystem host(hc);
    const std::size_t b = split ? host.add_iio_stack(hc.iio) : 0;
    for (std::uint32_t i = 0; i < 4; ++i)
      host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
    auto dev = workloads::fio_p2m_write(hc, workloads::p2m_region());
    dev.link_gb_per_s = 7.0;
    host.add_storage(dev, 0);
    auto dev2 = dev;
    dev2.region.base += 2ull << 30;
    host.add_storage(dev2, b);
    host.run(us(200), us(600));
    return host.collect().p2m_dev_gbps;
  };
  EXPECT_GT(run(true), run(false) * 1.3);
}

// ---------------------------------------------------------------------------
// Predictor
// ---------------------------------------------------------------------------

TEST(Predictor, ConvergesForAllQuadrants) {
  const auto host = core::cascade_lake();
  for (bool c2m_writes : {false, true}) {
    for (bool p2m_writes : {false, true}) {
      analytic::PredictorWorkload wl;
      wl.c2m_cores = 4;
      wl.c2m_writes = c2m_writes;
      wl.p2m_write_offered_gbps = p2m_writes ? host.pcie_write_gb_per_s : 0;
      wl.p2m_read_offered_gbps = p2m_writes ? 0 : host.pcie_read_gb_per_s;
      const auto p = analytic::predict(host, wl);
      EXPECT_TRUE(p.converged);
      EXPECT_GT(p.c2m_gbps, 0.0);
      EXPECT_LE(p.total_mem_gbps, host.dram_peak_gb_per_s() * 1.01);
    }
  }
}

TEST(Predictor, SingleCoreIsolatedMatchesDomainLaw) {
  const auto host = core::cascade_lake();
  analytic::PredictorWorkload wl;
  wl.c2m_cores = 1;
  const auto p = analytic::predict(host, wl);
  // Unloaded: T = 12 x 64 / ~70ns ~ 11 GB/s.
  EXPECT_NEAR(p.c2m_gbps, 11.0, 1.5);
  EXPECT_EQ(p.regime, core::Regime::kNone);
}

TEST(Predictor, ClassifiesBlueAndRedRegimes) {
  const auto host = core::cascade_lake();
  analytic::PredictorWorkload q1;
  q1.c2m_cores = 3;
  q1.p2m_write_offered_gbps = host.pcie_write_gb_per_s;
  const auto p1 = analytic::predict(host, q1);
  EXPECT_EQ(p1.regime, core::Regime::kBlue);

  analytic::PredictorWorkload q3 = q1;
  q3.c2m_cores = 5;
  q3.c2m_writes = true;
  const auto p3 = analytic::predict(host, q3);
  EXPECT_EQ(p3.regime, core::Regime::kRed);
  EXPECT_GT(p3.p2m_degradation, 1.2);
}

TEST(Predictor, TracksSimulatorWithinCoarseBand) {
  // Quadrant 1 at 4 cores: predictor within ~30% of the simulator.
  const auto host = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 4;
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  core::Plan plan;
  const core::ColocationRef ref = plan.colocation(host, c2m, p2m, fast());
  const auto sim = core::execute(plan)[ref];

  analytic::PredictorWorkload wl;
  wl.c2m_cores = 4;
  wl.p2m_write_offered_gbps = host.pcie_write_gb_per_s;
  const auto pred = analytic::predict(host, wl);
  EXPECT_NEAR(pred.c2m_gbps / sim.colo.c2m_score, 1.0, 0.3);
  EXPECT_NEAR(pred.p2m_write_gbps / sim.colo.p2m_score, 1.0, 0.15);
}

TEST(Predictor, MoreCreditsMoreThroughputUntilSaturation) {
  core::HostConfig host = core::cascade_lake();
  analytic::PredictorWorkload wl;
  wl.c2m_cores = 1;
  double prev = 0;
  for (std::uint32_t lfb : {6u, 12u, 24u}) {
    host.core.lfb_entries = lfb;
    const auto p = analytic::predict(host, wl);
    EXPECT_GT(p.c2m_gbps, prev);
    prev = p.c2m_gbps;
  }
}

}  // namespace
}  // namespace hostnet
