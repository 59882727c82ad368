// The blue and red regimes (Fig 3), the domains behind them (Fig 6) and
// their root-cause counters per quadrant (Figs 7, 8, 13, 14), on Cascade
// Lake with prefetching and DDIO disabled.
#include <optional>
#include <string>
#include <vector>

#include "figures.hpp"

namespace hostnet::figures {

namespace {

/// The root-cause counters of one C2M core count: C2M-Read latency, RPQ
/// occupancy and read row-miss ratio, isolated vs colocated.
std::vector<std::string> c2m_read_row(std::uint32_t cores, const core::Metrics& iso,
                                      const core::Metrics& colo) {
  return {std::to_string(cores), Table::num(iso.lfb_latency_ns, 1),
          Table::num(colo.lfb_latency_ns, 1), Table::num(iso.avg_rpq_occupancy, 1),
          Table::num(colo.avg_rpq_occupancy, 1), Table::pct(iso.row_miss_ratio_read * 100),
          Table::pct(colo.row_miss_ratio_read * 100)};
}

/// The P2M-Write root-cause counters of one window: domain latency,
/// WPQ-full fraction, IIO write occupancy (avg, max) and device GB/s.
std::vector<std::string> p2m_write_row(const std::string& cores, const core::Metrics& m) {
  return {cores,
          Table::num(m.p2m_write.latency_ns, 1),
          Table::pct(m.wpq_full_fraction * 100),
          Table::num(m.p2m_write.credits_in_use, 1),
          Table::num(m.p2m_write.max_credits_used, 0),
          Table::num(m.p2m_dev_gbps, 1)};
}

}  // namespace

// Figure 3: for each quadrant and C2M core count, C2M and P2M throughput
// degradation (isolated/colocated) and the colocated memory-bandwidth
// breakdown -- the left/right columns of each quadrant in the figure.
Printer fig03_quadrants(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"Quadrant 1: C2M-Read + P2M-Write", false, true},
      {"Quadrant 2: C2M-Read + P2M-Read", false, false},
      {"Quadrant 3: C2M-ReadWrite + P2M-Write", true, true},
      {"Quadrant 4: C2M-ReadWrite + P2M-Read", true, false},
  };
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Quadrant& q : quads)
    sweeps.push_back(plan.core_sweep(host, c2m_stream(q.c2m_writes),
                                     fio_stream(host, q.p2m_writes), kCores,
                                     core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
      banner(quads[qi].title, os);
      Table t({"C2M cores", "C2M degr", "P2M degr", "C2M GB/s", "P2M GB/s", "mem total",
               "regime"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto o = out[sweeps[qi][i]];
        const auto& m = o.colo.metrics;
        t.row({std::to_string(kCores[i]), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x", Table::num(m.c2m_mem_gbps(), 1),
               Table::num(m.p2m_mem_gbps(), 1), Table::num(m.total_mem_gbps(), 1),
               core::to_string(o.regime())});
      }
      t.print(os);
    }
  };
}

// Figure 6 + section 4.2: evidence for the domains and their
// characteristics.
//
// (a) C2M-Read sweep: LFB latency vs CHA->DRAM read latency. The LFB
//     latency must always exceed (and inflate in lockstep with) the
//     CHA->DRAM latency: the C2M-Read domain spans all hops to DRAM.
// (b) C2M-ReadWrite sweep: LFB latency vs CHA->MC write latency. The
//     CHA->MC write latency can exceed the LFB latency, proving the
//     C2M-Write domain does NOT include the MC.
// (c) Low-load P2M (4 KB QD1 storage reads) colocated with C2M-ReadWrite:
//     IIO latency vs CHA->MC write latency -- the IIO latency is inclusive
//     of it (the P2M-Write domain DOES include the MC).
// (d) Credit counts: max LFB occupancy (10-12), IIO write-buffer occupancy
//     saturation (~92), in-flight P2M reads at the CHA (lower bound on the
//     P2M-Read credits).
Printer fig06_domain_evidence(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  core::P2MSpec qd1;
  qd1.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());

  // (d) reuses the 1-core C2M-Read window of (a) and the 0-core QD1 window
  // of (c).
  std::vector<std::size_t> read_iso, rw_iso, qd1_colo;
  for (auto n : kCores) read_iso.push_back(plan.add(host, c2m_stream(false, n), std::nullopt, opt));
  for (auto n : kCores) rw_iso.push_back(plan.add(host, c2m_stream(true, n), std::nullopt, opt));
  for (std::uint32_t n = 0; n <= 6; ++n)
    qd1_colo.push_back(plan.add(
        host, n > 0 ? std::optional<core::C2MSpec>(c2m_stream(true, n)) : std::nullopt, qd1, opt));
  const std::size_t iio_sat = plan.add(host, c2m_stream(true, 6), fio_stream(host, true), opt);
  const std::size_t p2m_rd_sat = plan.add(host, c2m_stream(false, 6), fio_stream(host, false), opt);

  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Fig 6(a): C2M-Read -- LFB latency vs CHA->DRAM read latency", os);
    Table a({"C2M cores", "LFB lat (ns)", "CHA->DRAM read lat (ns)", "LFB max occ"});
    for (std::size_t i = 0; i < kCores.size(); ++i) {
      const auto& r = out[read_iso[i]];
      const auto& d = r.metrics.domain(core::Domain::kC2MRead);
      a.row({std::to_string(kCores[i]), Table::num(d.latency_ns, 1),
             Table::num(r.metrics.cha_dram_read_latency_c2m_ns, 1),
             std::to_string(static_cast<std::int64_t>(d.max_credits_used))});
    }
    a.print(os);

    banner("Fig 6(b): C2M-ReadWrite -- LFB latency vs CHA->MC write latency", os);
    Table b({"C2M cores", "LFB lat (ns)", "CHA->MC write lat (ns)", "C2M-Write lat (ns)"});
    for (std::size_t i = 0; i < kCores.size(); ++i) {
      const auto& r = out[rw_iso[i]];
      b.row({std::to_string(kCores[i]),
             Table::num(r.metrics.domain(core::Domain::kC2MRead).latency_ns, 1),
             Table::num(r.metrics.cha_mc_write_latency_ns, 1),
             Table::num(r.metrics.domain(core::Domain::kC2MWrite).latency_ns, 1)});
    }
    b.print(os);

    banner("Fig 6(c,d): 4KB-QD1 P2M-Write -- IIO latency vs CHA->MC write latency", os);
    Table c({"C2M cores", "IIO lat (ns)", "CHA->MC write lat (ns)", "IIO wr occ (avg)"});
    for (std::size_t n = 0; n < qd1_colo.size(); ++n) {
      const auto& r = out[qd1_colo[n]];
      const auto& d = r.metrics.domain(core::Domain::kP2MWrite);
      c.row({std::to_string(n), Table::num(d.latency_ns, 1),
             Table::num(r.metrics.cha_mc_write_latency_ns, 1), Table::num(d.credits_in_use, 1)});
    }
    c.print(os);

    banner("Fig 6(d)/§4.2: domain credit counts", os);
    Table t({"measurement", "value", "paper"});
    const auto& d = out[read_iso.front()].metrics.domain(core::Domain::kC2MRead);
    t.row({"max LFB occupancy (C2M-Read, 1 core)",
           std::to_string(static_cast<std::int64_t>(d.max_credits_used)), "10-12"});
    t.row({"unloaded C2M-Read latency (ns)", Table::num(d.latency_ns, 1), "~70"});
    // P2M-Write saturating PCIe + max C2M load: IIO write buffer fills.
    t.row({"IIO write buffer occupancy saturation",
           Table::num(out[iio_sat].metrics.domain(core::Domain::kP2MWrite).max_credits_used, 0),
           "~92"});
    t.row({"in-flight P2M reads at CHA (max, lower bound on credits)",
           std::to_string(out[p2m_rd_sat].metrics.p2m_reads_in_flight_at_cha_max), ">=164"});
    t.row({"unloaded P2M-Write domain latency (ns)",
           Table::num(out[qd1_colo.front()].metrics.domain(core::Domain::kP2MWrite).latency_ns, 1),
           "~300"});
    t.print(os);
  };
}

// Figure 7: root-cause measurements for quadrant 1 (C2M-Read + P2M-Write).
//
// (a) C2M-Read domain latency (isolated vs colocated)
// (b) average RPQ occupancy (with vs without P2M)
// (c) row miss ratio of C2M reads (with vs without P2M)
// (d) bank-deviation CDF points (load imbalance across banks)
// (e) P2M-Write domain latency vs C2M cores
// (f) fraction of time the WPQ is full
// (g) P2M-Write domain credit utilization (IIO write-buffer occupancy)
Printer fig07_quadrant1(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  const auto sweep = plan.core_sweep(host, c2m_stream(false), fio_stream(host, true), kCores,
                                     core::default_run_options());
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Fig 7(a,b,c): C2M-Read domain latency, RPQ occupancy, row miss ratio", os);
    Table a({"C2M cores", "lat iso (ns)", "lat colo (ns)", "RPQ iso", "RPQ colo",
             "rowmiss iso", "rowmiss colo"});
    for (std::size_t i = 0; i < kCores.size(); ++i)
      a.row(c2m_read_row(kCores[i], out[sweep[i].iso_c2m].metrics, out[sweep[i].colo].metrics));
    a.print(os);

    banner("Fig 7(d): bank deviation CDF (1 C2M core; max/mean bank load per 1000 reads)", os);
    const auto& iso = out[sweep[0].iso_c2m].metrics.bank_deviation;
    const auto& colo = out[sweep[0].colo].metrics.bank_deviation;
    Table d({"quantile", "isolated", "colocated"});
    for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99})
      d.row({Table::num(q, 2), Table::num(iso.quantile(q), 2) + "x",
             Table::num(colo.quantile(q), 2) + "x"});
    d.row({"frac >= 1.5x", Table::pct(iso.fraction_at_least(1.5) * 100),
           Table::pct(colo.fraction_at_least(1.5) * 100)});
    d.row({"frac >= 2.0x", Table::pct(iso.fraction_at_least(2.0) * 100),
           Table::pct(colo.fraction_at_least(2.0) * 100)});
    d.print(os);

    banner("Fig 7(e,f,g): P2M-Write latency, WPQ-full fraction, IIO credit utilization", os);
    Table e({"C2M cores", "P2M-Write lat (ns)", "WPQ full", "IIO wr occ (avg)",
             "IIO wr occ (max)", "P2M GB/s"});
    e.row(p2m_write_row("0", out[sweep.front().iso_p2m].metrics));
    for (std::size_t i = 0; i < kCores.size(); ++i)
      e.row(p2m_write_row(std::to_string(kCores[i]), out[sweep[i].colo].metrics));
    e.print(os);
  };
}

// Figure 8: root-cause measurements for quadrant 3 (C2M-ReadWrite +
// P2M-Write) -- the red regime.
//
// (a) C2M-Read domain latency (iso vs colo)
// (b) average RPQ occupancy (with vs without P2M)
// (c) row miss ratio of C2M reads
// (d) P2M-Write domain latency
// (e) WPQ backpressure fraction ("fraction of time WPQ is filled")
// (f) IIO write-buffer occupancy (P2M domain credits in use)
// plus the phase-2 signature: CHA write backlog (N_waiting) and admission
// delay, which equalize C2M/P2M latency inflation at 5-6 cores.
Printer fig08_quadrant3(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  const auto sweep = plan.core_sweep(host, c2m_stream(true), fio_stream(host, true), kCores,
                                     core::default_run_options());
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Fig 8(a,b,c): C2M latency, RPQ occupancy, row miss ratio", os);
    Table a({"C2M cores", "LFB iso (ns)", "LFB colo (ns)", "RPQ iso", "RPQ colo",
             "rowmiss iso", "rowmiss colo"});
    for (std::size_t i = 0; i < kCores.size(); ++i)
      a.row(c2m_read_row(kCores[i], out[sweep[i].iso_c2m].metrics, out[sweep[i].colo].metrics));
    a.print(os);

    banner("Fig 8(d,e,f): P2M-Write latency, WPQ backpressure, IIO credits", os);
    Table d({"C2M cores", "P2M-Write lat (ns)", "WPQ full", "IIO wr occ", "IIO wr max",
             "P2M GB/s"});
    for (std::size_t i = 0; i < kCores.size(); ++i)
      d.row(p2m_write_row(std::to_string(kCores[i]), out[sweep[i].colo].metrics));
    d.print(os);

    banner("Fig 8 phase 2: CHA write backlog and admission delay (colocated)", os);
    Table p({"C2M cores", "N_waiting", "C2M-Write lat (ns)", "adm wait C2M-W (ns)",
             "adm wait P2M-W (ns)"});
    for (std::size_t i = 0; i < kCores.size(); ++i) {
      const auto& colo = out[sweep[i].colo].metrics;
      p.row({std::to_string(kCores[i]), Table::num(colo.n_waiting, 1),
             Table::num(colo.c2m_write.latency_ns, 1),
             Table::num(colo.cha_admission_wait_ns[1], 1),
             Table::num(colo.cha_admission_wait_ns[3], 1)});
    }
    p.print(os);
  };
}

// Figures 13 & 14 (Appendix A): root-cause measurements for quadrants 2
// (C2M-Read + P2M-Read) and 4 (C2M-ReadWrite + P2M-Read).
//
// Both show the blue regime driven by MC read queueing (latency inflation,
// RPQ occupancy, row misses) with P2M-Read protected by its large spare
// credit pool: in-flight P2M reads at the CHA stay far below the IIO read
// buffer limit.
Printer fig13_14_quadrants24(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"Fig 13 (Appendix A): quadrant 2 -- C2M-Read + P2M-Read", false, false},
      {"Fig 14 (Appendix A): quadrant 4 -- C2M-ReadWrite + P2M-Read", true, false},
  };
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Quadrant& q : quads)
    sweeps.push_back(plan.core_sweep(host, c2m_stream(q.c2m_writes), fio_stream(host, false),
                                     kCores, core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
      banner(quads[qi].title, os);
      Table t({"C2M cores", "LFB iso (ns)", "LFB colo (ns)", "RPQ iso", "RPQ colo",
               "rowmiss iso", "rowmiss colo", "P2M rd inflight@CHA (max)", "P2M GB/s"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const auto& colo = out[sweeps[qi][i].colo].metrics;
        auto row = c2m_read_row(kCores[i], out[sweeps[qi][i].iso_c2m].metrics, colo);
        row.push_back(std::to_string(colo.p2m_reads_in_flight_at_cha_max));
        row.push_back(Table::num(colo.p2m_dev_gbps, 1));
        t.row(row);
      }
      t.print(os);
    }
    os << "\nIIO read-buffer credit limit: " << host.iio.read_credits
       << " cachelines (in-flight stays below it:\n"
          "spare credits are why P2M-Read tolerates the latency inflation)\n";
  };
}

}  // namespace hostnet::figures
