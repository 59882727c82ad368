// Section 7's extensions: host congestion control (hostCC), CHA isolation
// policies, multiple IIO stacks, a configuration-driven predictor, and
// the tail-latency and congestion-control-stack views of the regimes.
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analytic/predictor.hpp"
#include "common/stats.hpp"
#include "figures.hpp"

namespace hostnet::figures {

namespace {

const LatencyHistogram& domain_latency(const core::RunOutcome& o, core::Domain d) {
  return o.latency[static_cast<std::size_t>(d)];
}

/// A tail-latency table row: p50, p99, p999 and max in ns.
std::vector<std::string> tail_row(const std::string& label, const LatencyHistogram& h) {
  return {label, Table::num(h.p50(), 0), Table::num(h.p99(), 0), Table::num(h.p999(), 0),
          Table::num(h.max(), 0)};
}

}  // namespace

// A hostCC-style controller (core/hostcc.hpp) duty-cycle-throttles the C2M
// cores when the P2M-Write domain latency exceeds a target. Quadrant-3
// sweep, controller off vs on: it should restore P2M throughput
// (degradation -> ~1x) at a bounded C2M cost, and stay inactive in the
// blue regime (quadrant 1), where P2M needs no protection.
Printer ext_hostcc(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"hostCC extension: quadrant 3 (C2M-ReadWrite + P2M-Write)", true, true},
      {"hostCC extension: quadrant 1 (C2M-Read + P2M-Write; should stay idle)", false, true},
  };
  std::vector<std::vector<std::array<std::size_t, 2>>> w;  // w[q][i]: {off, on} at kCores[i]
  for (const Quadrant& q : quads) {
    w.emplace_back();
    for (std::uint32_t n : kCores) {
      core::C2MSpec paced = c2m_stream(q.c2m_writes, n);
      paced.hostcc = hostcc::HostccConfig{};
      w.back().push_back(
          {plan.add(host, c2m_stream(q.c2m_writes, n), fio_stream(host, true),
                    core::default_run_options()),
           plan.add(host, paced, fio_stream(host, true), core::default_run_options())});
    }
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < w.size(); ++qi) {
      banner(quads[qi].title, os);
      Table t({"C2M cores", "P2M GB/s off", "P2M GB/s on", "C2M GB/s off", "C2M GB/s on",
               "avg throttle"});
      for (std::size_t i = 0; i < kCores.size(); ++i) {
        const core::RunOutcome& off = out[w[qi][i][0]];
        const core::RunOutcome& on = out[w[qi][i][1]];
        t.row({std::to_string(kCores[i]), Table::num(off.metrics.p2m_dev_gbps),
               Table::num(on.metrics.p2m_dev_gbps), Table::num(off.metrics.c2m_app_gbps),
               Table::num(on.metrics.c2m_app_gbps), Table::pct(on.hostcc_throttle * 100)});
      }
      t.print(os);
    }
    os << "\nTakeaway: a ~360 ns P2M-Write latency target recovers PCIe line rate\n"
          "in the red regime by pacing the cores, and costs nothing in the blue\n"
          "regime where the P2M domain's spare credits already absorb contention.\n";
  };
}

// CHA/MC scheduling mechanisms that isolate C2M and P2M traffic:
// peripheral write priority at the CHA->MC forwarding stage and a reserved
// tracker share for peripheral writes. The red regime's P2M collapse is a
// queueing-order artifact (P2M writes FIFO behind the C2M write-back
// backlog), so reordering at the CHA largely restores P2M at a modest C2M
// cost.
Printer ext_isolation(core::Plan& plan) {
  struct Policy {
    const char* name;
    bool priority;
    std::uint32_t reserve;
  };
  static constexpr Policy policies[] = {
      {"baseline (FIFO writes)", false, 0},
      {"P2M write priority", true, 0},
      {"P2M priority + 48-entry tracker reserve", true, 48},
  };
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Policy& pol : policies) {
    core::HostConfig host = core::cascade_lake();
    host.cha.peripheral_write_priority = pol.priority;
    host.cha.write_tracker_peripheral_reserve = pol.reserve;
    sweeps.push_back(plan.core_sweep(host, c2m_stream(true), fio_stream(host, true), {2, 4, 6},
                                     core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Isolation extension: quadrant 3 (C2M-ReadWrite + P2M-Write)", os);
    for (std::size_t pi = 0; pi < sweeps.size(); ++pi) {
      banner(std::string("policy: ") + policies[pi].name, os);
      Table t({"C2M cores", "C2M degr", "P2M degr", "P2M GB/s", "P2M-W lat (ns)"});
      for (const core::ColocationRef& ref : sweeps[pi]) {
        const auto o = out[ref];
        t.row({std::to_string(o.colo.metrics.c2m_cores), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x", Table::num(o.colo.p2m_score, 1),
               Table::num(o.colo.metrics.p2m_write.latency_ns, 0)});
      }
      t.print(os);
    }
  };
}

// Hosts with "multiple IIOs": two peripheral devices sharing one IIO stack
// vs split across two stacks. Credits are per stack, so stack placement
// decides whether two P2M-Write streams share one 92-credit pool or get one
// each. Under red-regime latency inflation the shared pool becomes the
// binding constraint first.
Printer ext_multi_iio(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr std::array<std::uint32_t, 4> cores{0, 2, 4, 6};
  // Two 7 GB/s devices (x8 links) instead of one 14 GB/s aggregate.
  core::P2MSpec shared = fio_stream(host, true);
  shared.storage->link_gb_per_s = 7.0;
  shared.second_storage = shared.storage;
  shared.second_storage->region.base += 2ull << 30;
  core::P2MSpec split = shared;
  split.second_stack = true;
  std::vector<std::array<std::size_t, 2>> w;  // w[i]: {shared, split} beside cores[i]
  for (std::uint32_t n : cores) {
    w.push_back({plan.add(host, c2m_beside(true, n), shared, core::default_run_options()),
                 plan.add(host, c2m_beside(true, n), split, core::default_run_options())});
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Multi-IIO extension: 2 x 7 GB/s NVMe devices, shared vs split stacks", os);
    Table t({"C2M-RW cores", "P2M GB/s (shared stack)", "P2M GB/s (split stacks)",
             "P2M-W lat shared (ns)", "P2M-W lat split (ns)"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const core::Metrics& a = out[w[i][0]].metrics;
      const core::Metrics& b = out[w[i][1]].metrics;
      t.row({std::to_string(cores[i]), Table::num(a.p2m_dev_gbps, 1),
             Table::num(b.p2m_dev_gbps, 1), Table::num(a.p2m_write.latency_ns, 0),
             Table::num(b.p2m_write.latency_ns, 0)});
    }
    t.print(os);
    os << "\nSplitting devices across IIO stacks doubles the P2M-Write credit\n"
          "pool (92 -> 2x92): the same latency inflation that starves a shared\n"
          "stack is absorbed when each device has its own credits -- the domain\n"
          "law T <= C*64/L applied to topology planning.\n";
  };
}

// The configuration-driven performance predictor vs the simulator across
// the four quadrants. Unlike the section-6 formula (which consumes
// *measured* counters), the predictor consumes only the host configuration
// and the offered workload.
Printer ext_predictor(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr Quadrant quads[] = {
      {"Quadrant 1 (C2M-Read + P2M-Write)", false, true},
      {"Quadrant 2 (C2M-Read + P2M-Read)", false, false},
      {"Quadrant 3 (C2M-ReadWrite + P2M-Write)", true, true},
      {"Quadrant 4 (C2M-ReadWrite + P2M-Read)", true, false},
  };
  const std::vector<std::uint32_t> cores{1, 2, 4, 6};
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const Quadrant& q : quads)
    sweeps.push_back(plan.core_sweep(host, c2m_stream(q.c2m_writes),
                                     fio_stream(host, q.p2m_writes), cores,
                                     core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
      const Quadrant& q = quads[qi];
      banner(std::string("Predictor vs simulator: ") + q.title, os);
      Table t({"C2M cores", "C2M sim", "C2M pred", "err", "P2M sim", "P2M pred", "err",
               "regime pred/sim"});
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto sim = out[sweeps[qi][i]];
        analytic::PredictorWorkload wl;
        wl.c2m_cores = cores[i];
        wl.c2m_writes = q.c2m_writes;
        wl.p2m_write_offered_gbps = q.p2m_writes ? host.pcie_write_gb_per_s : 0;
        wl.p2m_read_offered_gbps = q.p2m_writes ? 0 : host.pcie_read_gb_per_s;
        const auto pred = analytic::predict(host, wl);
        const double sim_c2m = sim.colo.c2m_score;
        const double sim_p2m = sim.colo.p2m_score;
        const double pred_p2m = pred.p2m_write_gbps + pred.p2m_read_gbps;
        t.row({std::to_string(cores[i]), Table::num(sim_c2m, 1), Table::num(pred.c2m_gbps, 1),
               Table::pct(relative_error_pct(pred.c2m_gbps, sim_c2m), 0),
               Table::num(sim_p2m, 1), Table::num(pred_p2m, 1),
               Table::pct(relative_error_pct(pred_p2m, sim_p2m), 0),
               core::to_string(pred.regime) + "/" + core::to_string(sim.regime())});
      }
      t.print(os);
    }
    os << "\nThe predictor needs no simulation or measurement: it closes the\n"
          "section-6 formula with first-order models of its inputs. Expect\n"
          "coarser accuracy than Figure 11; its value is fast what-if sweeps.\n";
  };
}

// The tail-latency view of host-network contention. The production
// studies motivating the paper report host contention as *tail* latency
// inflation; each window carries every domain's full latency distribution,
// so colocation's effect on p50/p99/p999 shows for the C2M-Read domain
// (quadrant 1) and the P2M-Write domain (quadrant 3).
Printer ext_tail_latency(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr std::array<std::uint32_t, 4> rw_cores{0, 2, 4, 6};
  const std::array<std::size_t, 2> c2m_read{
      plan.add(host, c2m_stream(false, 2), std::nullopt, core::default_run_options()),
      plan.add(host, c2m_stream(false, 2), fio_stream(host, true), core::default_run_options())};
  std::vector<std::size_t> p2m_write;
  for (std::uint32_t n : rw_cores) {
    p2m_write.push_back(
        plan.add(host, c2m_beside(true, n), fio_stream(host, true), core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Tail latency: C2M-Read domain (2 cores), isolated vs + P2M-Write", os);
    Table a({"scenario", "p50 (ns)", "p99 (ns)", "p999 (ns)", "max (ns)"});
    a.row(tail_row("isolated", domain_latency(out[c2m_read[0]], core::Domain::kC2MRead)));
    a.row(tail_row("colocated", domain_latency(out[c2m_read[1]], core::Domain::kC2MRead)));
    a.print(os);

    banner("Tail latency: P2M-Write domain under increasing C2M-ReadWrite load", os);
    Table b({"C2M cores", "p50 (ns)", "p99 (ns)", "p999 (ns)", "max (ns)"});
    for (std::size_t i = 0; i < rw_cores.size(); ++i)
      b.row(tail_row(std::to_string(rw_cores[i]),
                     domain_latency(out[p2m_write[i]], core::Domain::kP2MWrite)));
    b.print(os);
    os << "\nNote the asymmetry: the blue regime inflates the C2M tail while the\n"
          "P2M-Write tail stays put; the red regime inflates the P2M-Write tail\n"
          "by an order of magnitude (the WPQ/CHA write backlog).\n";
  };
}

// The stack x quadrant matrix. The paper's TCP story (Figs 19/25/26/29/30)
// is DCTCP-only; with congestion control pluggable (net/tcp_stack.hpp) the
// open question becomes measurable: does a pacing-based (BBR-like) or
// delay-based (Davis-like) sender read the host network's extra latency as
// congestion and self-throttle in the blue regime, or sail into the red
// one? For each stack x {C2M-Read, C2M-ReadWrite} quadrant the C2M core
// count is swept and the blue/red regime onset (first core count whose
// colocation classifies as each) reported. A per-stack receiver detail
// table (loss, mark fraction, average cwnd) closes the loop with Fig
// 25/26's root-cause view.
Printer ext_tcp_stacks(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr std::array<net::TcpStackKind, 3> stacks{
      net::TcpStackKind::kDctcp, net::TcpStackKind::kBbr, net::TcpStackKind::kDavis};
  static constexpr Quadrant quads[] = {{"C2M-Read + TCP Rx", false, true},
                                       {"C2M-ReadWrite + TCP Rx", true, true}};
  // Default spec names, so the DCTCP windows are Fig 19's and Fig 25/26's.
  const auto rx = [](net::TcpStackKind kind) {
    core::P2MSpec p2m = dctcp_rx();
    p2m.tcp->stack = kind;
    return p2m;
  };
  std::vector<std::vector<std::vector<core::ColocationRef>>> sweeps;  // [quadrant][stack]
  for (const Quadrant& q : quads) {
    sweeps.emplace_back();
    for (net::TcpStackKind kind : stacks)
      sweeps.back().push_back(plan.core_sweep(host, c2m_stream(q.c2m_writes), rx(kind), kCores,
                                              core::default_run_options()));
  }
  // Receiver root-cause detail: 4 read-write cores beside each stack.
  std::vector<std::size_t> detail;
  for (net::TcpStackKind kind : stacks)
    detail.push_back(plan.add(host, c2m_stream(true, 4), rx(kind), core::default_run_options()));

  return [=](const core::Outcomes& out, std::ostream& os) {
    const auto onset_str = [](std::uint32_t n) { return n ? std::to_string(n) : "-"; };
    Table onsets({"stack", "quadrant", "blue onset", "red onset"});
    for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
      banner(std::string("TCP stack sweep: ") + quads[qi].title, os);
      for (std::size_t s = 0; s < stacks.size(); ++s) {
        Table t({"C2M cores", "C2M degr", "Net degr", "Net GB/s", "regime"});
        std::uint32_t blue = 0, red = 0;  // first core count in each regime (0 = never)
        for (std::size_t i = 0; i < kCores.size(); ++i) {
          const auto pt = out[sweeps[qi][s][i]];
          const core::Regime r = pt.regime();
          if (r == core::Regime::kBlue && blue == 0) blue = kCores[i];
          if (r == core::Regime::kRed && red == 0) red = kCores[i];
          t.row({std::to_string(kCores[i]), Table::num(pt.c2m_degradation()) + "x",
                 Table::num(pt.p2m_degradation()) + "x", Table::num(pt.colo.p2m_score, 2),
                 core::to_string(r)});
        }
        banner(std::string("stack: ") + net::to_string(stacks[s]), os);
        t.print(os);
        onsets.row(
            {net::to_string(stacks[s]), quads[qi].title, onset_str(blue), onset_str(red)});
      }
    }
    banner("Regime onset per stack x quadrant (first C2M core count; - = never)", os);
    onsets.print(os);

    banner("Receiver detail: 4x C2M-ReadWrite colocation", os);
    Table d({"stack", "goodput GB/s", "loss", "mark frac", "avg cwnd"});
    for (std::size_t s = 0; s < stacks.size(); ++s) {
      const net::TransportOutcome& tr = out[detail[s]].transport;
      d.row({net::to_string(stacks[s]), Table::num(tr.goodput_gbps, 2),
             Table::pct(tr.loss_rate * 100, 3), Table::pct(tr.mark_fraction * 100, 1),
             Table::num(tr.avg_cwnd, 1)});
    }
    d.print(os);
  };
}

}  // namespace hostnet::figures
