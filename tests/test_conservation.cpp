// System-wide conservation and consistency properties, swept over many
// workload mixes (parameterized): whatever the traffic, the host network
// must neither create nor lose cachelines, credits must stay within their
// pools, and the PMU's derived quantities must agree with direct counts.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/host_system.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

struct Mix {
  std::string name;
  std::uint32_t read_cores;
  std::uint32_t rw_cores;
  std::uint32_t random_cores;
  bool p2m_write;
  bool p2m_read;
  std::uint64_t seed;
};

void PrintTo(const Mix& m, std::ostream* os) { *os << m.name; }

class ConservationSweep : public ::testing::TestWithParam<Mix> {};

TEST_P(ConservationSweep, HoldsEverywhere) {
  const Mix mix = GetParam();
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, mix.seed);
  std::uint32_t idx = 0;
  for (std::uint32_t i = 0; i < mix.read_cores; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(idx++)));
  for (std::uint32_t i = 0; i < mix.rw_cores; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(idx++)));
  for (std::uint32_t i = 0; i < mix.random_cores; ++i)
    host.add_core(workloads::gapbs_pr(workloads::c2m_core_region(idx++)));
  if (mix.p2m_write)
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  if (mix.p2m_read) {
    auto sc = workloads::fio_p2m_read(hc, workloads::p2m_region());
    sc.region.base += 2ull << 30;
    sc.link_gb_per_s = 6.0;  // share the socket when colocated with writes
    host.add_storage(sc);
  }
  host.run(us(150), us(500));
  Metrics m = host.collect();

  // (1) Credit pools never overflow.
  EXPECT_LE(m.lfb_max_occupancy, hc.core.lfb_entries);
  EXPECT_LE(m.p2m_write.max_credits_used, hc.iio.write_credits);
  EXPECT_LE(m.p2m_read.max_credits_used, hc.iio.read_credits);

  // (2) Cacheline conservation: MC-serviced reads match core+device
  // completions within in-flight slack.
  const double slack = 3000;  // queues + trackers + pipelines
  const double dev_read_lines =
      m.p2m_read.throughput_gbps * m.window_ns / kCachelineBytes;
  EXPECT_NEAR(static_cast<double>(m.mc_lines_read),
              static_cast<double>(m.c2m_lines_read) + dev_read_lines, slack);

  // (3) Class bandwidth accounting sums exactly.
  EXPECT_NEAR(m.mem_gbps[0] + m.mem_gbps[1] + m.mem_gbps[2] + m.mem_gbps[3],
              m.total_mem_gbps(), 1e-9);

  // (4) Total memory bandwidth never exceeds the theoretical peak.
  EXPECT_LE(m.total_mem_gbps(), hc.dram_peak_gb_per_s() * 1.001);

  // (5) Little's law self-consistency for the LFB (PMU method vs direct).
  if (m.c2m_lines_read > 10000) {
    EXPECT_NEAR(m.lfb_littles_latency_ns / m.lfb_latency_ns, 1.0, 0.06);
  }

  // (6) Row outcomes account for every issued line.
  EXPECT_LE(m.mc_pre_conflict_read, m.mc_act_read);
  EXPECT_LE(m.mc_pre_conflict_write, m.mc_act_write);

  // (7) Non-negative, finite metrics.
  EXPECT_GE(m.row_miss_ratio_read, 0.0);
  EXPECT_LE(m.row_miss_ratio_read, 1.0);
  EXPECT_GE(m.wpq_full_fraction, 0.0);
  EXPECT_LE(m.wpq_full_fraction, 1.0);
  EXPECT_GE(m.n_waiting, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ConservationSweep,
    ::testing::Values(Mix{"read1", 1, 0, 0, false, false, 1},
                      Mix{"read6", 6, 0, 0, false, false, 2},
                      Mix{"rw4", 0, 4, 0, false, false, 3},
                      Mix{"rand3", 0, 0, 3, false, false, 4},
                      Mix{"q1", 3, 0, 0, true, false, 5},
                      Mix{"q2", 3, 0, 0, false, true, 6},
                      Mix{"q3", 0, 4, 0, true, false, 7},
                      Mix{"q4", 0, 4, 0, false, true, 8},
                      Mix{"mixed_all", 1, 2, 1, true, true, 9},
                      Mix{"p2m_only", 0, 0, 0, true, true, 10}),
    [](const ::testing::TestParamInfo<Mix>& info) { return info.param.name; });

TEST(ConfigValidation, AcceptsPresets) {
  EXPECT_EQ(cascade_lake().validate(), "");
  EXPECT_EQ(ice_lake().validate(), "");
}

// Every double HostConfig knob is a rate: NaN, inf and non-positive values
// are rejected by name, and a host cannot be built from them.
TEST(ConfigValidation, RejectsNonFiniteRates) {
  HostConfig c = cascade_lake();
  c.pcie_write_gb_per_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(c.validate(), "pcie_write_gb_per_s must be finite and positive");
  EXPECT_THROW(HostSystem h(c), std::invalid_argument);
  c = cascade_lake();
  c.core_ghz = std::numeric_limits<double>::infinity();
  EXPECT_EQ(c.validate(), "core_ghz must be finite and positive");
}

TEST(ConfigValidation, RejectsBrokenConfigs) {
  {
    HostConfig c = cascade_lake();
    c.dram.channels = 3;
    EXPECT_NE(c.validate(), "");
    EXPECT_THROW(HostSystem h(c), std::invalid_argument);
  }
  {
    HostConfig c = cascade_lake();
    c.mc.wpq_low_wm = c.mc.wpq_high_wm;
    EXPECT_NE(c.validate(), "");
  }
  {
    HostConfig c = cascade_lake();
    c.mc.wpq_high_wm = c.mc.wpq_capacity;
    EXPECT_NE(c.validate(), "");
  }
  {
    HostConfig c = cascade_lake();
    c.dram.bank_interleave_bytes = 2 * c.dram.row_bytes;
    EXPECT_NE(c.validate(), "");
  }
  {
    HostConfig c = cascade_lake();
    c.cha.write_tracker_peripheral_reserve = c.cha.write_tracker + 1;
    EXPECT_NE(c.validate(), "");
  }
  {
    HostConfig c = cascade_lake();
    c.core.lfb_entries = 0;
    EXPECT_NE(c.validate(), "");
  }
}

}  // namespace
}  // namespace hostnet::core
