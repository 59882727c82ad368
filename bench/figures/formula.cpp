// The analytical formulae (section 6) against measured windows: their
// throughput error and delay breakdown per quadrant (Figs 11, 12) and on
// the RDMA and DCTCP case studies (Figs 27-30).
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analytic/formula.hpp"
#include "figures.hpp"
#include "workloads/rdma.hpp"

namespace hostnet::figures {

namespace {

double measured_gbps(analytic::DomainKind kind, const core::Metrics& m) {
  switch (kind) {
    case analytic::DomainKind::kC2MRead:
    case analytic::DomainKind::kC2MReadWrite:
      return m.c2m_read.throughput_gbps;
    case analytic::DomainKind::kP2MRead:
      return m.p2m_read.throughput_gbps;
    case analytic::DomainKind::kP2MWrite:
      return m.p2m_write.throughput_gbps;
  }
  return 0;
}

analytic::DomainKind c2m_kind(bool writes) {
  return writes ? analytic::DomainKind::kC2MReadWrite : analytic::DomainKind::kC2MRead;
}

analytic::DomainKind p2m_kind(bool writes) {
  return writes ? analytic::DomainKind::kP2MWrite : analytic::DomainKind::kP2MRead;
}

/// The colocated window of each quadrant at each of kCores, colo[q][i],
/// placing `p2m_write` or `p2m_read` by the quadrant's P2M direction.
std::vector<std::vector<std::size_t>> plan_colocated(core::Plan& plan,
                                                     const core::HostConfig& host,
                                                     const std::vector<Quadrant>& quads,
                                                     const core::P2MSpec& p2m_write,
                                                     const core::P2MSpec& p2m_read) {
  const auto opt = core::default_run_options();
  std::vector<std::vector<std::size_t>> colo;
  for (const Quadrant& q : quads) {
    colo.emplace_back();
    for (auto n : kCores)
      colo.back().push_back(plan.add(host, c2m_stream(q.c2m_writes, n),
                                     q.p2m_writes ? p2m_write : p2m_read, opt));
  }
  return colo;
}

void print_read_breakdown(const char* title, const std::vector<core::Metrics>& ms,
                          const dram::Timing& t, bool with_cha, std::ostream& os) {
  banner(title, os);
  std::vector<std::string> hdr{"C2M cores", "Switching", "WriteHoL", "ReadHoL",
                               "TopOfQueue"};
  if (with_cha) hdr.push_back("CHA adm delay");
  Table tab(hdr);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto in = analytic::inputs_from_metrics(ms[i]);
    const auto b = analytic::read_queueing_delay(in, t);
    std::vector<std::string> row{std::to_string(kCores[i]),
                                 Table::num(b.switching_ns, 1) + "ns",
                                 Table::num(b.hol_other_ns, 1) + "ns",
                                 Table::num(b.hol_same_ns, 1) + "ns",
                                 Table::num(b.top_of_queue_ns, 1) + "ns"};
    if (with_cha)
      row.push_back(Table::num(ms[i].cha_admission_wait_ns[0] + ms[i].cha_admission_wait_ns[1], 1) +
                    "ns");
    tab.row(row);
  }
  tab.print(os);
}

void print_write_breakdown(const char* title, const std::vector<core::Metrics>& ms,
                           const dram::Timing& t, std::ostream& os) {
  banner(title, os);
  Table tab({"C2M cores", "Switching", "ReadHoL", "WriteHoL", "TopOfQueue",
             "P_fill", "CHA adm delay"});
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto in = analytic::inputs_from_metrics(ms[i]);
    const auto b = analytic::write_waiting_time(in, t);
    tab.row({std::to_string(kCores[i]), Table::num(in.p_fill_wpq * b.switching_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.hol_other_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.hol_same_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.top_of_queue_ns, 1) + "ns",
             Table::num(in.p_fill_wpq, 2),
             Table::num(ms[i].cha_admission_wait_ns[3], 1) + "ns"});
  }
  tab.print(os);
}

}  // namespace

// Figure 11: accuracy of the analytical formulae (section 6).
//
// For every quadrant and C2M core count, feed the measured counter inputs
// (Table 2) into the read/write domain-latency formulae, estimate
// throughput via the domain law, and report the relative error vs the
// measured throughput. Positive = overestimation.
//
// Quadrants 1/2/4 report C2M error; quadrant 3 reports both C2M and P2M,
// with and without the CHA admission-delay correction (the paper's fix for
// the >4-core regime where CHA backpressure inflates both domains).
Printer fig11_formula_error(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<Quadrant> quads{
      {"Quadrant 1 (C2M-Read + P2M-Write)", false, true},
      {"Quadrant 2 (C2M-Read + P2M-Read)", false, false},
      {"Quadrant 3 (C2M-ReadWrite + P2M-Write)", true, true},
      {"Quadrant 4 (C2M-ReadWrite + P2M-Read)", true, false},
  };
  // Calibration: unloaded C2M-Read (a single isolated core), unloaded
  // P2M-Write (the low-load 4KB QD1 probe) and isolated P2M-Read, which at
  // low load is link-limited with spare credits (L = O*64/T).
  core::P2MSpec probe;
  probe.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());
  const std::size_t cal_c2m = plan.add(host, c2m_stream(false), std::nullopt, opt);
  const std::size_t cal_wr = plan.add(host, std::nullopt, probe, opt);
  const std::size_t cal_rd = plan.add(host, std::nullopt, fio_stream(host, false), opt);
  const auto colo = plan_colocated(plan, host, quads, fio_stream(host, true),
                                   fio_stream(host, false));

  return [=](const core::Outcomes& out, std::ostream& os) {
    analytic::Constants constants;
    constants.c2m_read_ns = out[cal_c2m].metrics.lfb_latency_ns;
    constants.p2m_write_ns = out[cal_wr].metrics.p2m_write.latency_ns;
    constants.p2m_read_ns = out[cal_rd].metrics.p2m_read.latency_ns;
    for (std::size_t qi = 0; qi < quads.size(); ++qi) {
      const auto ck = c2m_kind(quads[qi].c2m_writes);
      const auto pk = p2m_kind(quads[qi].p2m_writes);
      banner(std::string("Fig 11: formula error, ") + quads[qi].title, os);
      Table t({"C2M cores", "C2M err", "C2M err (+CHA)", "P2M err", "P2M err (+CHA)"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto& m = out[colo[qi][i]].metrics;
        auto err = [&](analytic::DomainKind kind, bool cha) {
          const auto e = analytic::estimate(kind, m, host.mc.timing, constants,
                                            {.add_cha_admission_delay = cha});
          return Table::pct(relative_error_pct(e.throughput_gbps, measured_gbps(kind, m)));
        };
        t.row({std::to_string(kCores[i]), err(ck, false), err(ck, true), err(pk, false),
               err(pk, true)});
      }
      t.print(os);
    }
  };
}

// Figure 12: breakdown of the analytical formula's queueing-delay
// components for all four quadrants (switching delay, write/read
// head-of-line blocking, top-of-queue PRE/ACT delay; plus the CHA
// admission delay for quadrant 3).
Printer fig12_formula_breakdown(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  // The last entry, quadrant 3, gets both C2M (read) and P2M (write)
  // breakdowns plus the CHA delay.
  const std::vector<Quadrant> quads{
      {"Fig 12(a): quadrant 1 C2M read-delay breakdown", false, true},
      {"Fig 12(b): quadrant 2 C2M read-delay breakdown", false, false},
      {"Fig 12(c): quadrant 4 C2M read-delay breakdown", true, false},
      {"Fig 12(d): quadrant 3 C2M read-delay breakdown (+CHA)", true, true},
  };
  const auto colo = plan_colocated(plan, host, quads, fio_stream(host, true),
                                   fio_stream(host, false));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < quads.size(); ++qi) {
      std::vector<core::Metrics> ms;
      for (std::size_t w : colo[qi]) ms.push_back(out[w].metrics);
      const bool q3 = quads[qi].c2m_writes && quads[qi].p2m_writes;
      print_read_breakdown(quads[qi].title, ms, host.mc.timing, q3, os);
      if (q3)
        print_write_breakdown("Fig 12(e): quadrant 3 P2M write-delay breakdown (+CHA)", ms,
                              host.mc.timing, os);
    }
  };
}

// Figures 27 & 28 (Appendix E.1): the analytical formula applied to the
// RDMA case study -- throughput error per quadrant (Fig 27) and the
// formula component breakdown (Fig 28).
Printer fig27_28_rdma_formula(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<Quadrant> quads{
      {"RDMA Quadrant 1", false, true},
      {"RDMA Quadrant 2", false, false},
      {"RDMA Quadrant 3", true, true},
      {"RDMA Quadrant 4", true, false},
  };
  // Calibration: unloaded C2M-Read, isolated ib_write_bw and ib_read_bw.
  const std::size_t cal_c2m = plan.add(host, c2m_stream(false), std::nullopt, opt);
  const std::size_t cal_wr = plan.add(host, std::nullopt, workloads::rdma_write_p2m(), opt);
  const std::size_t cal_rd = plan.add(host, std::nullopt, workloads::rdma_read_p2m(), opt);
  const auto colo = plan_colocated(plan, host, quads, workloads::rdma_write_p2m(),
                                   workloads::rdma_read_p2m());

  return [=](const core::Outcomes& out, std::ostream& os) {
    analytic::Constants constants;
    constants.c2m_read_ns = out[cal_c2m].metrics.lfb_latency_ns;
    constants.p2m_write_ns = out[cal_wr].metrics.p2m_write.latency_ns;
    constants.p2m_read_ns = out[cal_rd].metrics.p2m_read.latency_ns;
    for (std::size_t qi = 0; qi < quads.size(); ++qi) {
      const Quadrant& q = quads[qi];
      banner(std::string("Fig 27/28: formula on ") + q.title, os);
      Table t({"C2M cores", "C2M err (+CHA)", "P2M err (+CHA)", "Switching", "HoL other",
               "HoL same", "TopOfQueue"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto& m = out[colo[qi][i]].metrics;
        const analytic::EstimateOptions eo{.add_cha_admission_delay = true};
        const auto& timing = host.mc.timing;
        const auto ec = analytic::estimate(c2m_kind(q.c2m_writes), m, timing, constants, eo);
        const auto ep = analytic::estimate(p2m_kind(q.p2m_writes), m, timing, constants, eo);
        const double meas_c = m.c2m_read.throughput_gbps;
        const double meas_p = measured_gbps(p2m_kind(q.p2m_writes), m);
        t.row({std::to_string(kCores[i]),
               Table::pct(relative_error_pct(ec.throughput_gbps, meas_c)),
               Table::pct(relative_error_pct(ep.throughput_gbps, meas_p)),
               Table::num(ec.breakdown.switching_ns, 1) + "ns",
               Table::num(ec.breakdown.hol_other_ns, 1) + "ns",
               Table::num(ec.breakdown.hol_same_ns, 1) + "ns",
               Table::num(ec.breakdown.top_of_queue_ns, 1) + "ns"});
      }
      t.print(os);
    }
  };
}

// Figures 29 & 30 (Appendix E.2): the analytical formula applied to the
// DCTCP case study. Per the paper's methodology, the Network app's C2M
// throughput estimate divides the measured average LFB occupancy of the
// copy cores by the formula's C2M latency, and its P2M estimate divides
// the measured IIO occupancy by the formula's P2M-Write latency.
Printer fig29_30_tcp_formula(core::Plan& plan) {
  const core::HostConfig hc = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};
  const std::vector<Quadrant> cases{
      {"Fig 29 (top) / Fig 30: C2MRead + TCP Rx formula accuracy", false, true},
      {"Fig 29 (bottom) / Fig 30: C2MReadWrite + TCP Rx formula accuracy", true, true},
  };
  // Calibration: unloaded C2M-Read (one core) and P2M-Write (4KB QD1 probe).
  core::P2MSpec probe;
  probe.storage = workloads::fio_4k_qd1(hc, workloads::p2m_region());
  const std::size_t cal_c2m = plan.add(hc, c2m_stream(false), std::nullopt, opt);
  const std::size_t cal_wr = plan.add(hc, std::nullopt, probe, opt);
  std::vector<std::vector<std::size_t>> colo;  // the receiver beside cores[i] C2M cores
  for (const Quadrant& c : cases) {
    colo.emplace_back();
    for (auto n : cores)
      colo.back().push_back(plan.add(hc, c2m_stream(c.c2m_writes, n), dctcp_rx(), opt));
  }

  return [=](const core::Outcomes& out, std::ostream& os) {
    analytic::Constants constants;
    constants.c2m_read_ns = out[cal_c2m].metrics.lfb_latency_ns;
    constants.p2m_write_ns = out[cal_wr].metrics.p2m_write.latency_ns;
    const analytic::EstimateOptions eo{.add_cha_admission_delay = true};
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      banner(cases[ci].title, os);
      Table t({"C2M cores", "Memory app err", "Net C2M err", "Net P2M err"});
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto& m = out[colo[ci][i]].metrics;
        const auto& rx = out[colo[ci][i]].transport;
        // Memory app (the colocated C2M workload).
        const auto em =
            analytic::estimate(c2m_kind(cases[ci].c2m_writes), m, hc.mc.timing, constants, eo);
        const double mem_err = relative_error_pct(em.throughput_gbps, m.c2m_read.throughput_gbps);

        // Network app C2M: copy-core LFB occupancy / formula C2M latency.
        // The copy makes two LFB trips per line (socket read + RFO-less
        // store), so its effective latency is the formula's read latency.
        const auto in = analytic::inputs_from_metrics(m);
        const double l_read =
            analytic::read_domain_latency_ns(constants.c2m_read_ns, in, hc.mc.timing) +
            em.cha_admission_delay_ns;
        const double net_c2m_est =
            analytic::estimate_throughput_gbps(rx.copy_lfb_occupancy, l_read);
        const double net_c2m_meas = gb_per_s(rx.copy_lines * kCachelineBytes, ns(m.window_ns));

        // Network app P2M: IIO write occupancy / formula P2M-Write latency.
        const auto ep =
            analytic::estimate(analytic::DomainKind::kP2MWrite, m, hc.mc.timing, constants, eo);
        t.row({std::to_string(cores[i]), Table::pct(mem_err),
               Table::pct(relative_error_pct(net_c2m_est, net_c2m_meas)),
               Table::pct(relative_error_pct(ep.throughput_gbps, m.p2m_write.throughput_gbps))});
      }
      t.print(os);
    }
    os << "\nNote: as in the paper, points with significant packet loss are\n"
          "dominated by congestion-control dynamics that the formula does not\n"
          "model; errors there are expected to be larger (paper: ~26%).\n";
  };
}

}  // namespace hostnet::figures
