// Integration tests on the assembled host: calibration, conservation laws,
// determinism, and metric self-consistency.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

RunOptions fast() {
  RunOptions o;
  o.warmup = us(100);
  o.measure = us(400);
  return o;
}

TEST(HostSystem, SequentialReadsSaturateMemoryBandwidth) {
  // Table 1 calibration: "a simple sequential read microbenchmark saturates
  // more than 90% of theoretical maximum memory bandwidth".
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  for (std::uint32_t i = 0; i < 6; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.run(us(100), us(500));
  const Metrics m = host.collect();
  EXPECT_GT(m.total_mem_gbps(), 0.90 * hc.dram_peak_gb_per_s());
  EXPECT_LE(m.total_mem_gbps(), hc.dram_peak_gb_per_s());
}

TEST(HostSystem, UnloadedLatenciesMatchPaper) {
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.run(us(100), us(300));
  const Metrics m = host.collect();
  EXPECT_NEAR(m.lfb_latency_ns, 70.0, 5.0);          // ~70 ns C2M-Read
  EXPECT_EQ(m.lfb_max_occupancy, 12);                 // 10-12 LFB credits
}

TEST(HostSystem, FlowConservationLinesInEqualLinesOut) {
  // Over a long window, DRAM-serviced lines match core-completed lines
  // (plus bounded in-flight slack).
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  for (std::uint32_t i = 0; i < 3; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.run(us(100), us(500));
  const Metrics m = host.collect();
  EXPECT_NEAR(static_cast<double>(m.mc_lines_read),
              static_cast<double>(m.c2m_lines_read), 3 * 12 + 64);
}

TEST(HostSystem, MemoryBandwidthByClassSumsToTotal) {
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(0)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(100), us(400));
  const Metrics m = host.collect();
  EXPECT_GT(m.mem_gbps[0], 0.0);  // C2M reads
  EXPECT_GT(m.mem_gbps[1], 0.0);  // C2M writes
  EXPECT_GT(m.mem_gbps[3], 0.0);  // P2M writes
  EXPECT_NEAR(m.c2m_mem_gbps() + m.p2m_mem_gbps(), m.total_mem_gbps(), 1e-9);
}

TEST(HostSystem, DeterministicAcrossRuns) {
  const HostConfig hc = cascade_lake();
  auto run_once = [&] {
    HostSystem host(hc, 42);
    host.add_core(workloads::gapbs_pr(workloads::c2m_shared_region()));
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
    host.run(us(100), us(300));
    return host.collect();
  };
  const Metrics a = run_once();
  const Metrics b = run_once();
  EXPECT_EQ(a.mc_lines_read, b.mc_lines_read);
  EXPECT_EQ(a.mc_lines_written, b.mc_lines_written);
  EXPECT_DOUBLE_EQ(a.lfb_latency_ns, b.lfb_latency_ns);
  EXPECT_DOUBLE_EQ(a.p2m_dev_gbps, b.p2m_dev_gbps);
}

TEST(HostSystem, SeedChangesRandomWorkloadDetails) {
  const HostConfig hc = cascade_lake();
  auto lines = [&](std::uint64_t seed) {
    HostSystem host(hc, seed);
    host.add_core(workloads::gapbs_pr(workloads::c2m_shared_region()));
    host.run(us(50), us(200));
    return host.collect().mc_lines_read;
  };
  EXPECT_NE(lines(1), lines(2));
}

TEST(HostSystem, LittlesLawConsistencyAcrossTheStack) {
  // PMU-style (occupancy/rate) latency must agree with directly measured
  // per-request latency -- the validity condition for the paper's entire
  // measurement methodology.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(200), us(600));
  const Metrics m = host.collect();
  EXPECT_NEAR(m.lfb_littles_latency_ns / m.lfb_latency_ns, 1.0, 0.05);
}

TEST(HostSystem, DomainThroughputLawHolds) {
  // T <= C*64/L for every observed domain (the paper's central equation).
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(100), us(500));
  const Metrics m = host.collect();
  // C2M-Read: credits = 12 per core x 4 cores.
  EXPECT_LE(m.c2m_read.throughput_gbps,
            1.02 * max_throughput_gbps(4 * 12, m.c2m_read.latency_ns));
  // P2M-Write: credits = IIO write buffer.
  EXPECT_LE(m.p2m_write.throughput_gbps,
            1.02 * max_throughput_gbps(hc.iio.write_credits, m.p2m_write.latency_ns));
}

TEST(HostSystem, RunMoreExtendsWindow) {
  const HostConfig hc = cascade_lake();
  HostSystem host(hc);
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.run(us(50), us(100));
  const auto a = host.collect().c2m_lines_read;
  host.run_more(us(100));
  const auto b = host.collect().c2m_lines_read;
  EXPECT_GT(b, a);
}

TEST(HostSystem, IceLakePresetScalesBandwidth) {
  const HostConfig hc = ice_lake();
  EXPECT_NEAR(hc.dram_peak_gb_per_s(), 102.4, 0.5);
  HostSystem host(hc);
  for (std::uint32_t i = 0; i < 16; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.run(us(100), us(300));
  const Metrics m = host.collect();
  EXPECT_GT(m.total_mem_gbps(), 0.85 * hc.dram_peak_gb_per_s());
}

TEST(Experiment, DefaultRunOptionsHonorEnv) {
  setenv("HOSTNET_MEASURE_US", "123", 1);
  setenv("HOSTNET_WARMUP_US", "45", 1);
  const RunOptions o = default_run_options();
  EXPECT_EQ(o.measure, us(123));
  EXPECT_EQ(o.warmup, us(45));
  unsetenv("HOSTNET_MEASURE_US");
  unsetenv("HOSTNET_WARMUP_US");
}

TEST(Experiment, MalformedWindowEnvOverridesAreRejected) {
  // A typo must not silently run a 0 us window: the error names the variable.
  auto error_for = [](const char* var, const char* value) -> std::string {
    setenv(var, value, 1);
    std::string what;
    try {
      default_run_options();
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    unsetenv(var);
    return what;
  };
  for (const char* bad : {"abc", "", "12us", "nan", "inf", "0", "-5"})
    EXPECT_NE(error_for("HOSTNET_MEASURE_US", bad).find("HOSTNET_MEASURE_US"),
              std::string::npos)
        << "'" << bad << "'";
  for (const char* bad : {"abc", "1e", "-1"})
    EXPECT_NE(error_for("HOSTNET_WARMUP_US", bad).find("HOSTNET_WARMUP_US"), std::string::npos)
        << "'" << bad << "'";
  // A zero warmup is legitimate (measure from a cold host).
  EXPECT_EQ(error_for("HOSTNET_WARMUP_US", "0"), "");
  setenv("HOSTNET_WARMUP_US", "0", 1);
  EXPECT_EQ(default_run_options().warmup, 0);
  unsetenv("HOSTNET_WARMUP_US");
}

TEST(Experiment, PerCoreRegionsAreDisjoint) {
  C2MSpec spec;
  spec.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  spec.cores = 4;
  const HostConfig hc = cascade_lake();
  Plan plan;
  plan.add(hc, spec, std::nullopt, fast());
  const RunOutcome out = execute(plan)[0];
  EXPECT_EQ(out.metrics.c2m_cores, 4u);
  EXPECT_GT(out.c2m_score, 0.0);
}

}  // namespace
}  // namespace hostnet::core
