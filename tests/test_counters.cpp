// Tests for the simulated PMU primitives (stations, MC counters).
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "counters/mc_counters.hpp"
#include "counters/station.hpp"

namespace hostnet::counters {
namespace {

TEST(LatencyStation, DirectLatencyMean) {
  LatencyStation s;
  s.reset(0);
  s.enter(0);
  s.leave(ns(100), 0);
  s.enter(ns(100));
  s.leave(ns(300), ns(100));
  EXPECT_DOUBLE_EQ(s.mean_latency_ns(), 150.0);
  EXPECT_EQ(s.completions(), 2u);
}

TEST(LatencyStation, LittlesLawMatchesDirectForSteadyStream) {
  // Deterministic D/D/1-ish stream: arrivals every 10 ns, service 40 ns,
  // 4 in flight steady-state. Little's law: L = O/R must equal 40 ns.
  LatencyStation s;
  s.reset(0);
  std::vector<Tick> entries;
  Tick now = 0;
  for (int i = 0; i < 1000; ++i) {
    now = i * ns(10);
    s.enter(now);
    entries.push_back(now);
    if (i >= 4) s.leave(now, entries[static_cast<size_t>(i - 4)]);
  }
  const Tick end = now;
  EXPECT_NEAR(s.mean_latency_ns(), 40.0, 0.5);
  EXPECT_NEAR(s.littles_latency_ns(end), 40.0, 2.0);
}

TEST(LatencyStation, OccupancyTracksEnterLeave) {
  LatencyStation s;
  s.reset(0);
  s.enter(0);
  s.enter(0);
  EXPECT_EQ(s.occupancy(), 2);
  s.leave(ns(10), 0);
  EXPECT_EQ(s.occupancy(), 1);
  EXPECT_EQ(s.max_occupancy(), 2);
}

class LittlesLawProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LittlesLawProperty, RandomArrivalsAgree) {
  // Random arrivals/services: Little's-law latency and direct mean latency
  // must agree for any traffic pattern once the window is long.
  Rng rng(GetParam());
  LatencyStation s;
  s.reset(0);
  std::deque<Tick> inflight;
  Tick now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<Tick>(rng.below(ns(20)));
    if (!inflight.empty() && rng.chance(0.5)) {
      s.leave(now, inflight.front());
      inflight.pop_front();
    } else {
      s.enter(now);
      inflight.push_back(now);
    }
  }
  while (!inflight.empty()) {
    now += static_cast<Tick>(rng.below(ns(20)));
    s.leave(now, inflight.front());
    inflight.pop_front();
  }
  EXPECT_NEAR(s.littles_latency_ns(now) / s.mean_latency_ns(), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LittlesLawProperty, ::testing::Values(1, 2, 3, 17, 99));

TEST(McChannelCounters, RowResultAccounting) {
  McChannelCounters c(32);
  c.on_row_result(mem::Op::kRead, true, false);
  c.on_row_result(mem::Op::kRead, false, false);   // miss-empty: ACT
  c.on_row_result(mem::Op::kRead, false, true);    // conflict: ACT + PRE
  c.on_row_result(mem::Op::kWrite, false, true);
  EXPECT_EQ(c.row_hit_read, 1u);
  EXPECT_EQ(c.act_read, 2u);
  EXPECT_EQ(c.pre_conflict_read, 1u);
  EXPECT_EQ(c.act_write, 1u);
  EXPECT_EQ(c.pre_conflict_write, 1u);
  EXPECT_NEAR(c.row_miss_ratio_read(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(c.row_miss_ratio_write(), 1.0, 1e-9);
}

TEST(McChannelCounters, BankDeviationSampling) {
  McChannelCounters c(8);
  c.sample_every = 100;
  c.sample_banks = 4;
  // Concentrate all reads on bank 0: deviation = max/mean = 100/(100/4) = 4.
  for (int i = 0; i < 100; ++i) c.on_read_issued(0);
  ASSERT_EQ(c.bank_deviation.size(), 1u);
  EXPECT_NEAR(c.bank_deviation.values()[0], 4.0, 1e-9);
  // Evenly spread over the 4 sampled banks: deviation 1.
  for (int i = 0; i < 100; ++i) c.on_read_issued(static_cast<std::uint32_t>(i % 4));
  ASSERT_EQ(c.bank_deviation.size(), 2u);
  EXPECT_NEAR(c.bank_deviation.values()[1], 1.0, 1e-9);
}

TEST(McChannelCounters, ResetClearsEverything) {
  McChannelCounters c(8);
  c.on_read_issued(1);
  c.on_row_result(mem::Op::kRead, false, true);
  c.lines_written = 5;
  c.switch_cycles = 2;
  c.reset();
  EXPECT_EQ(c.lines_read, 0u);
  EXPECT_EQ(c.lines_written, 0u);
  EXPECT_EQ(c.switch_cycles, 0u);
  EXPECT_EQ(c.act_read, 0u);
  EXPECT_EQ(c.bank_deviation.size(), 0u);
}

}  // namespace
}  // namespace hostnet::counters
