// Tests for the networking case-study models: NIC (PFC / lossy+ECN), the
// RDMA placements on the executor, and the DCTCP receiver.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/dctcp.hpp"
#include "net/nic_device.hpp"
#include "workloads/rdma.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::net {
namespace {

core::RunOptions fast() {
  core::RunOptions o;
  o.warmup = us(200);
  o.measure = us(600);
  return o;
}

TEST(NicDevice, AutonomousModeDeliversAtWireRate) {
  core::HostSystem host(core::cascade_lake());
  const NicDevice& nic = host.add_nic(core::RdmaWriteSpec{}.nic());
  host.run(us(100), us(500));
  EXPECT_NEAR(gb_per_s(nic.bytes_accepted(), us(500)), 12.25, 0.5);
  EXPECT_EQ(nic.packets_dropped(), 0u);  // PFC: lossless
  EXPECT_LT(nic.pause_fraction(host.sim().now()), 0.05);
}

TEST(NicDevice, PfcPausesUnderDmaBackpressure) {
  // Choke the PCIe side so the RX buffer fills: PFC must pause (not drop).
  core::HostConfig hc = core::cascade_lake();
  hc.pcie_write_gb_per_s = 6.0;  // drain slower than the 12.25 GB/s wire
  core::HostSystem host(hc);
  const NicDevice& nic = host.add_nic(core::RdmaWriteSpec{}.nic());
  host.run(us(100), us(500));
  EXPECT_EQ(nic.packets_dropped(), 0u);
  EXPECT_GT(nic.pause_fraction(host.sim().now()), 0.3);
  EXPECT_NEAR(gb_per_s(nic.bytes_dma(), us(500)), 6.0, 0.5);
}

TEST(NicDevice, LossyModeDropsWhenFull) {
  core::HostConfig hc = core::cascade_lake();
  hc.pcie_write_gb_per_s = 1.0;  // nearly stuck
  core::HostSystem host(hc);
  NicConfig nc;  // transport-fed and lossy by default
  nc.mtu_bytes = 4096;
  nc.rx_buffer_bytes = 16 << 10;
  nc.ecn_threshold = 8 << 10;
  NicDevice& nic = host.add_nic(nc);
  host.run(us(1), us(1));
  int accepted = 0, dropped = 0, marked = 0;
  for (int i = 0; i < 32; ++i) {
    bool mark = false;
    if (nic.offer_packet(&mark)) {
      ++accepted;
      if (mark) ++marked;
    } else {
      ++dropped;
    }
  }
  EXPECT_EQ(accepted, 4);  // 16 KB buffer / 4 KB packets
  EXPECT_EQ(dropped, 28);
  EXPECT_GE(marked, 1);    // packets above the 8 KB ECN threshold
}

/// The colocation protocol with an RDMA P2M placement.
core::ColocationOutcome colocate_rdma(const core::C2MSpec& c2m, const core::P2MSpec& rdma) {
  core::Plan plan;
  const core::ColocationRef ref = plan.colocation(core::cascade_lake(), c2m, rdma, fast());
  return core::execute(plan)[ref];
}

TEST(Rdma, WriteTrafficShowsBlueRegime) {
  // RDMA quadrant 1 (Appendix C): C2M-Read degrades, RoCE throughput does
  // not, and PFC stays quiet.
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 3;
  const auto o = colocate_rdma(c2m, workloads::rdma_write_p2m());
  EXPECT_GT(o.c2m_degradation(), 1.15);
  EXPECT_LT(o.p2m_degradation(), 1.05);
  EXPECT_LT(o.colo.transport.pause_fraction, 0.05);
}

TEST(Rdma, RedRegimeTriggersPfcPauses) {
  // RDMA quadrant 3 at high C2M load: P2M degrades and the NIC spends a
  // significant fraction of time paused (paper: 22-43%).
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  c2m.cores = 5;
  const auto o = colocate_rdma(c2m, workloads::rdma_write_p2m());
  EXPECT_GT(o.p2m_degradation(), 1.3);
  EXPECT_GT(o.colo.transport.pause_fraction, 0.15);
  EXPECT_EQ(o.colo.metrics.channels, 2u);
}

TEST(Rdma, ReadTrafficUnaffectedInBlueRegime) {
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 3;
  const auto o = colocate_rdma(c2m, workloads::rdma_read_p2m());
  EXPECT_LT(o.p2m_degradation(), 1.05);
  EXPECT_GT(o.c2m_degradation(), 1.1);
  EXPECT_EQ(o.colo.transport.pause_fraction, 0.0);  // a DMA reader: no PFC
}

TEST(Rdma, WritePlacementIsFingerprinted) {
  // The NIC placement and its wire rate shape construction, so they must
  // reach the fingerprint (forking and fleet sharding depend on it).
  const auto hc = core::cascade_lake();
  const auto fp = [&](const std::optional<core::P2MSpec>& p2m) {
    return core::config_fingerprint(hc, std::nullopt, p2m, 1, us(10));
  };
  core::P2MSpec slow = workloads::rdma_write_p2m({6.0});
  EXPECT_NE(fp(workloads::rdma_write_p2m()), fp(std::nullopt));
  EXPECT_NE(fp(workloads::rdma_write_p2m()), fp(slow));
  core::P2MSpec named_like_write = workloads::rdma_read_p2m();
  named_like_write.name = "rdma_write";
  EXPECT_NE(fp(workloads::rdma_write_p2m()), fp(named_like_write));
}

TEST(Dctcp, IsolatedReceiverReachesWireRate) {
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  TcpConfig cfg;
  const TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
  host.run(us(400), us(800));
  const Tick now = host.sim().now();
  EXPECT_GT(rx.goodput_gbps(now), 0.85 * cfg.nic.wire_gb_per_s);
  EXPECT_LT(rx.loss_rate(), 0.01);
}

TEST(Dctcp, BlueRegimeThrottlesViaFlowControlNotDrops) {
  // C2M-Read colocation slows the copy; DCTCP flow control (receive
  // window) reduces the sending rate without packet loss (Appendix C.2).
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  TcpConfig cfg;
  const TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
  host.run(us(400), us(800));
  const Tick now = host.sim().now();
  EXPECT_LT(rx.goodput_gbps(now), 0.92 * cfg.nic.wire_gb_per_s);  // degraded
  EXPECT_LT(rx.loss_rate(), 0.01);                                // but lossless
}

TEST(Dctcp, RedRegimeCongestionResponse) {
  // C2M-ReadWrite at high load degrades P2M-Write; the NIC buffer backs up
  // and DCTCP reacts -- drops (paper: 0.02-0.36% loss) or, in our fluid
  // model's stable equilibria, persistent ECN marking. Either way the
  // network app's throughput collapses well below the wire rate.
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
  TcpConfig cfg;
  const TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
  host.run(us(400), us(1000));
  const Tick now = host.sim().now();
  EXPECT_TRUE(rx.loss_rate() > 0.0001 || rx.mark_fraction() > 0.05)
      << "loss=" << rx.loss_rate() << " marks=" << rx.mark_fraction();
  EXPECT_LT(rx.goodput_gbps(now), 0.7 * cfg.nic.wire_gb_per_s);
}

TEST(Dctcp, CopyGeneratesC2MTraffic) {
  // The kernel copy must show up as C2M reads and writes at the memory
  // controller (the paper's explanation for TCP's different behavior).
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  TcpConfig cfg;
  const TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
  host.run(us(300), us(500));
  const auto m = host.collect();
  EXPECT_GT(m.mem_gbps[0], 5.0);  // C2M reads (socket buffer)
  EXPECT_GT(m.mem_gbps[3], 5.0);  // P2M writes (NIC DMA)
  EXPECT_GT(rx.copy_lfb_latency_ns(), 50.0);
}

TEST(Dctcp, NicAskingForAutonomousArrivalsOrPfcIsRefused) {
  // The sender feeds a TCP receiver's NIC, and the NIC is lossy: a NIC
  // config asking for autonomous arrivals or PFC is refused, naming the
  // leaf, on a hand-built host and through the executor alike.
  const auto hc = core::cascade_lake();
  for (const bool pfc : {false, true}) {
    const std::string leaf = pfc ? "nic.pfc" : "nic.autonomous";
    SCOPED_TRACE(leaf);
    TcpConfig cfg;
    (pfc ? cfg.nic.pfc : cfg.nic.autonomous) = true;
    core::HostSystem host(hc);
    try {
      host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(leaf), std::string::npos) << e.what();
    }
    EXPECT_TRUE(host.tcp_receivers().empty());
    core::P2MSpec p2m;
    p2m.tcp = cfg;
    core::Plan plan;
    plan.add(hc, std::nullopt, p2m, fast());
    EXPECT_THROW(core::execute(plan, {1, core::SweepMode::kCold}), std::invalid_argument);
  }
}

}  // namespace
}  // namespace hostnet::net
