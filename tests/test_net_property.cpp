// Property tests for the NIC model and the histogram, parameterized over
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/nic_device.hpp"
#include "workloads/workloads.hpp"

namespace hostnet {
namespace {

// ---------------------------------------------------------------------------
// NIC under a PCIe-rate sweep: conservation and monotone pause behaviour.
// ---------------------------------------------------------------------------

/// Cascade Lake whose NICs DMA-write at `pcie` GB/s.
core::HostConfig pcie_at(double pcie) {
  core::HostConfig hc = core::cascade_lake();
  hc.pcie_write_gb_per_s = pcie;
  return hc;
}

class NicPcieSweep : public ::testing::TestWithParam<double> {};

TEST_P(NicPcieSweep, LosslessAndBounded) {
  const double pcie = GetParam();
  core::HostSystem host(pcie_at(pcie));
  const net::NicConfig nc = core::RdmaWriteSpec{}.nic();
  const net::NicDevice& nic = host.add_nic(nc);
  host.run(us(150), us(500));

  // PFC: nothing dropped, buffer bounded; over the measurement window the
  // accepted and DMA'd byte counts can differ only by the buffer-level
  // change, which is bounded by the buffer capacity.
  EXPECT_EQ(nic.packets_dropped(), 0u);
  EXPECT_LE(nic.buffer_occupancy_bytes(), nc.rx_buffer_bytes);
  const auto acc = static_cast<std::int64_t>(nic.bytes_accepted());
  const auto dma = static_cast<std::int64_t>(nic.bytes_dma());
  EXPECT_LE(std::abs(acc - dma), static_cast<std::int64_t>(nc.rx_buffer_bytes));
  // Delivered rate can't exceed either the wire or the PCIe drain.
  const double dma_rate = gb_per_s(nic.bytes_dma(), us(500));
  EXPECT_LE(dma_rate, std::min(nc.wire_gb_per_s, pcie) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, NicPcieSweep, ::testing::Values(3.0, 6.0, 9.0, 12.0, 14.0));

TEST(NicProperty, PauseFractionMonotoneInDrainRate) {
  // Slower PCIe drain -> more PFC pausing. Sweep and assert monotonicity.
  std::vector<double> fractions;
  for (double pcie : {4.0, 8.0, 12.0, 14.0}) {
    core::HostSystem host(pcie_at(pcie));
    const net::NicDevice& nic = host.add_nic(core::RdmaWriteSpec{}.nic());
    host.run(us(150), us(400));
    fractions.push_back(nic.pause_fraction(host.sim().now()));
  }
  for (std::size_t i = 1; i < fractions.size(); ++i)
    EXPECT_LE(fractions[i], fractions[i - 1] + 0.02) << i;
  EXPECT_GT(fractions.front(), 0.5);   // 4 of 12.25: paused most of the time
  EXPECT_LT(fractions.back(), 0.05);   // 14 of 12.25: effectively never
}

TEST(NicProperty, PausedThroughputMatchesDrainRate) {
  // Under PFC the delivered rate equals the bottleneck drain rate.
  core::HostSystem host(pcie_at(5.0));
  const net::NicDevice& nic = host.add_nic(core::RdmaWriteSpec{}.nic());
  host.run(us(150), us(500));
  EXPECT_NEAR(gb_per_s(nic.bytes_dma(), us(500)), 5.0, 0.4);
}

// ---------------------------------------------------------------------------
// Histogram vs a sorted-reference implementation.
// ---------------------------------------------------------------------------

class HistogramReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramReference, QuantilesWithinBucketError) {
  Rng rng(GetParam());
  LatencyHistogram h;
  std::vector<double> ref;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    // Mixture: mostly ~100 ns with a heavy microsecond tail (like a domain
    // latency under contention).
    double v = 60.0 + static_cast<double>(rng.below(80));
    if (rng.chance(0.02)) v = 500.0 + static_cast<double>(rng.below(5000));
    h.add(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ref[static_cast<std::size_t>(q * (n - 1))];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.08 + 2.0) << "q=" << q;
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramReference, ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace hostnet
