// Unit tests for common utilities: units, rng, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace hostnet {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(ns(1.0), 1000);
  EXPECT_EQ(us(1.0), 1'000'000);
  EXPECT_EQ(ms(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_ns(ns(2.73)), 2.73);
  EXPECT_DOUBLE_EQ(to_us(us(7.5)), 7.5);
}

TEST(Units, Throughput) {
  // 64 bytes in 2.73 ns -> 23.4 GB/s (one DDR4-2933 channel).
  EXPECT_NEAR(gb_per_s(64, ns(2.73)), 23.44, 0.01);
  // Zero or negative window yields zero.
  EXPECT_EQ(gb_per_s(100, 0), 0.0);
}

TEST(Units, Serialization) {
  // One cacheline at 14 GB/s takes ~4.57 ns.
  EXPECT_NEAR(to_ns(serialization_ticks(64, 14.0)), 4.571, 0.01);
  // Round trip: serialize then measure.
  const Tick t = serialization_ticks(1 << 20, 25.0);
  EXPECT_NEAR(gb_per_s(1 << 20, t), 25.0, 0.1);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(37), 37u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  int counts[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.below(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(MeanAccumulator, Basics) {
  MeanAccumulator m;
  EXPECT_EQ(m.mean(), 0.0);
  m.add(1.0);
  m.add(3.0);
  EXPECT_DOUBLE_EQ(m.mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 3.0);
  EXPECT_EQ(m.count(), 2u);
  m.reset();
  EXPECT_EQ(m.count(), 0u);
}

TEST(TimeWeighted, AveragesOverTime) {
  TimeWeighted tw;
  tw.reset(0);
  tw.set(0, 2);
  tw.set(ns(10), 4);  // level 2 for 10 ns
  tw.set(ns(30), 0);  // level 4 for 20 ns
  // Average over [0, 40ns]: (2*10 + 4*20 + 0*10) / 40 = 2.5
  EXPECT_NEAR(tw.average(ns(40)), 2.5, 1e-9);
  EXPECT_EQ(tw.max_level(), 4);
}

TEST(TimeWeighted, ResetKeepsLevel) {
  TimeWeighted tw;
  tw.set(0, 7);
  tw.reset(ns(5));
  EXPECT_EQ(tw.level(), 7);
  EXPECT_NEAR(tw.average(ns(10)), 7.0, 1e-9);
}

TEST(SampleSet, QuantilesAndFractions) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.fraction_at_least(51.0), 0.5, 1e-9);
  EXPECT_EQ(s.size(), 100u);
}

TEST(Stats, RelativeErrorSignConvention) {
  EXPECT_NEAR(relative_error_pct(11.0, 10.0), 10.0, 1e-9);   // overestimate +
  EXPECT_NEAR(relative_error_pct(9.0, 10.0), -10.0, 1e-9);   // underestimate -
  EXPECT_EQ(relative_error_pct(5.0, 0.0), 0.0);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"a", "long-header"});
  t.row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.234, 2), "1.23");
  EXPECT_EQ(Table::pct(12.345), "12.3%");
}

}  // namespace
}  // namespace hostnet
