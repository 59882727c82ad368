// The networking case studies: RDMA (RoCE/PFC) colocated with the
// quadrant microbenchmarks (Figs 18, 20-24, Appendices C.1/D.1) and a DCTCP
// receiver colocated with memory apps (Figs 19, 25/26, Appendices
// C.2/D.2).
#include <optional>
#include <string>
#include <vector>

#include "core/host_system.hpp"
#include "figures.hpp"
#include "workloads/rdma.hpp"

namespace hostnet::figures {

namespace {

/// ib_write_bw (P2M-Write at the server) or ib_read_bw (P2M-Read).
core::P2MSpec rdma_p2m(bool writes) {
  return writes ? workloads::rdma_write_p2m() : workloads::rdma_read_p2m();
}

/// Fig 23: us-scale IIO write-buffer occupancy, quadrant 3, 5 C2M cores. It
/// reads instantaneous state no window outcome carries, so it drives its
/// own host.
void print_fig23_timeline(const core::HostConfig& host, std::ostream& os) {
  banner("Fig 23: IIO write-buffer occupancy timeline (RDMA Q3, 5 C2M cores)", os);
  core::HostSystem sys(host, 1);
  for (std::uint32_t i = 0; i < 5; ++i)
    sys.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
  const net::NicDevice& nic = sys.add_nic(core::RdmaWriteSpec{}.nic());
  sys.run(us(400), us(10));
  Table t({"t (us)", "IIO wr occupancy", "NIC paused"});
  for (int i = 0; i < 40; ++i) {
    sys.run_more(us(1));
    t.row({std::to_string(i + 1), std::to_string(sys.iio().write_station().occupancy()),
           nic.paused() ? "yes" : "no"});
  }
  t.print(os);
  os << "(PFC keeps enough data queued at the NIC to hold the IIO buffer\n"
        " near its "
     << host.iio.write_credits << "-credit capacity, matching the paper's Figure 23.)\n";
}

}  // namespace

// Figure 18 (Appendix C.1): the blue and red regimes across the four
// quadrants with RDMA (RoCE/PFC) generating the P2M traffic.
//
//   ib_write_bw -> P2M-Write at the server (quadrants 1 and 3)
//   ib_read_bw  -> P2M-Read at the server  (quadrants 2 and 4)
//
// The NIC generates slightly lower P2M load than the SSDs (~98 Gbps vs
// ~112 Gbps), so degradations are slightly milder than Figure 3.
Printer fig18_rdma_quadrants(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"RDMA Quadrant 1: C2M-Read + ib_write_bw (P2M-Write)", false, true},
      {"RDMA Quadrant 2: C2M-Read + ib_read_bw (P2M-Read)", false, false},
      {"RDMA Quadrant 3: C2M-ReadWrite + ib_write_bw (P2M-Write)", true, true},
      {"RDMA Quadrant 4: C2M-ReadWrite + ib_read_bw (P2M-Read)", true, false},
  };
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Quadrant& q : quads)
    sweeps.push_back(plan.core_sweep(host, c2m_stream(q.c2m_writes), rdma_p2m(q.p2m_writes),
                                     kCores, core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
      banner(quads[qi].title, os);
      Table t({"C2M cores", "C2M degr", "RoCE degr", "C2M mem GB/s", "P2M mem GB/s",
               "PFC pause"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto o = out[sweeps[qi][i]];
        t.row({std::to_string(kCores[i]), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x",
               Table::num(o.colo.metrics.c2m_mem_gbps(), 1),
               Table::num(o.colo.metrics.p2m_mem_gbps(), 1),
               Table::pct(o.colo.transport.pause_fraction * 100)});
      }
      t.print(os);
    }
  };
}

// Figure 19 (Appendix C.2): DCTCP receiver colocated with memory apps.
//
// (a,b) C2M-Read (Memory app) + TCP Rx: both degrade; the memory app
//       degrades more, and the gap narrows with load.
// (c,d) C2M-ReadWrite + TCP Rx: at low load the memory app degrades more;
//       at higher load the network app collapses (drops + CC response).
// The memory-bandwidth breakdown per case is also printed.
Printer fig19_tcp(core::Plan& plan) {
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};
  const std::vector<Quadrant> cases{
      {"Fig 19(a,b): C2MRead + TCP Rx (DCTCP, 4 copy cores)", false, true},
      {"Fig 19(c,d): C2MReadWrite + TCP Rx (DCTCP, 4 copy cores)", true, true},
  };
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Quadrant& c : cases)
    sweeps.push_back(plan.core_sweep(core::cascade_lake(), c2m_stream(c.c2m_writes), dctcp_rx(),
                                     cores, core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      banner(cases[ci].title, os);
      Table t({"C2M cores", "Memory app degr", "Network app degr", "loss rate",
               "C2M mem GB/s", "P2M mem GB/s"});
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto o = out[sweeps[ci][i]];
        const auto& m = o.colo.metrics;
        t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x",
               Table::pct(o.colo.transport.loss_rate * 100, 3), Table::num(m.c2m_mem_gbps(), 1),
               Table::num(m.p2m_mem_gbps(), 1)});
      }
      t.print(os);
    }
  };
}

// Figures 20-24 (Appendix D.1): root-cause measurements for the RDMA case
// study.
//
//   Fig 20: quadrant 1 (C2M-Read + ib_write_bw) counters
//   Fig 21: quadrant 2 (C2M-Read + ib_read_bw) counters
//   Fig 22: quadrant 3 (C2M-ReadWrite + ib_write_bw) counters + PFC pauses
//   Fig 23: microsecond-scale IIO write-buffer occupancy timeline in
//           quadrant 3 (PFC keeps the IIO buffer full)
//   Fig 24: quadrant 4 (C2M-ReadWrite + ib_read_bw) counters
Printer fig20_24_rdma_rootcause(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"Fig 20: RDMA quadrant 1 (C2M-Read + ib_write_bw)", false, true},
      {"Fig 21: RDMA quadrant 2 (C2M-Read + ib_read_bw)", false, false},
      {"Fig 22: RDMA quadrant 3 (C2M-ReadWrite + ib_write_bw)", true, true},
      {"Fig 24: RDMA quadrant 4 (C2M-ReadWrite + ib_read_bw)", true, false},
  };
  std::vector<std::vector<std::size_t>> colo;  // colo[q][i]: quadrant q at kCores[i]
  for (const Quadrant& q : quads) {
    colo.emplace_back();
    for (auto n : kCores)
      colo.back().push_back(plan.add(host, c2m_stream(q.c2m_writes, n), rdma_p2m(q.p2m_writes),
                                     core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < colo.size(); ++qi) {
      const bool wr = quads[qi].p2m_writes;
      banner(quads[qi].title, os);
      Table t({"C2M cores", "LFB lat (ns)", "RPQ occ", "rowmiss rd",
               wr ? "P2M-W lat (ns)" : "P2M-R inflight@CHA", wr ? "IIO wr occ" : "IIO rd occ",
               "WPQ full", "PFC pause"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto& o = out[colo[qi][i]];
        const auto& m = o.metrics;
        t.row({std::to_string(kCores[i]), Table::num(m.lfb_latency_ns, 1),
               Table::num(m.avg_rpq_occupancy, 1), Table::pct(m.row_miss_ratio_read * 100),
               wr ? Table::num(m.p2m_write.latency_ns, 1)
                  : Table::num(m.p2m_reads_in_flight_at_cha, 1),
               wr ? Table::num(m.p2m_write.credits_in_use, 1)
                  : Table::num(m.p2m_read.credits_in_use, 1),
               Table::pct(m.wpq_full_fraction * 100),
               Table::pct(o.transport.pause_fraction * 100)});
      }
      t.print(os);
    }
    print_fig23_timeline(host, os);
  };
}

// Figures 25 & 26 (Appendix D.2): root-cause measurements for the DCTCP
// case study.
//
//   Fig 25: C2MRead + TCP Rx -- C2M-Read latency inflation slows the copy
//           (CPU bottleneck); WPQ rarely backpressures; the IIO occupancy
//           *falls* with load (flow control reduces P2M in-flight).
//   Fig 26: C2MReadWrite + TCP Rx -- WPQ backpressure inflates the
//           P2M-Write domain, drops/marks appear, and the sender backs off.
Printer fig25_26_tcp_rootcause(core::Plan& plan) {
  const core::HostConfig hc = core::cascade_lake();
  const std::vector<std::uint32_t> cores{0, 1, 2, 3, 4};
  const std::vector<Quadrant> cases{
      {"Fig 25: C2MRead + TCP Rx root-cause counters", false, true},
      {"Fig 26: C2MReadWrite + TCP Rx root-cause counters", true, true},
  };
  std::vector<std::vector<std::size_t>> rx;  // rx[c][i]: the receiver beside cores[i]
  for (const Quadrant& c : cases) {
    rx.emplace_back();
    for (auto n : cores)
      rx.back().push_back(
          plan.add(hc, c2m_beside(c.c2m_writes, n), dctcp_rx(), core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      banner(cases[ci].title, os);
      Table t({"C2M cores", "copy LFB lat (ns)", "P2M-W lat (ns)", "WPQ full", "IIO wr occ",
               "goodput GB/s", "loss", "marks", "avg cwnd"});
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto& m = out[rx[ci][i]].metrics;
        const auto& tr = out[rx[ci][i]].transport;
        t.row({std::to_string(cores[i]), Table::num(tr.copy_lfb_latency_ns, 1),
               Table::num(m.p2m_write.latency_ns, 1), Table::pct(m.wpq_full_fraction * 100),
               Table::num(m.p2m_write.credits_in_use, 1), Table::num(tr.goodput_gbps, 2),
               Table::pct(tr.loss_rate * 100, 3), Table::pct(tr.mark_fraction * 100, 1),
               Table::num(tr.avg_cwnd, 1)});
      }
      t.print(os);
    }
  };
}

}  // namespace hostnet::figures
