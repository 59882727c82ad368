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
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};

  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  core::Plan plan;  // windows 2i / 2i+1: isolated / colocated at cores[i]
  for (auto n : cores) {
    c2m.cores = n;
    plan.add(host, c2m, std::nullopt, opt);
    plan.add(host, c2m, p2m, opt);
  }
  const auto out = core::execute(plan);
  struct Row {
    std::uint32_t n;
    core::Metrics iso;
    core::Metrics colo;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < cores.size(); ++i)
    rows.push_back(Row{cores[i], out[2 * i].metrics, out[2 * i + 1].metrics});

  banner("Fig 8(a,b,c): C2M latency, RPQ occupancy, row miss ratio");
  Table a({"C2M cores", "LFB iso (ns)", "LFB colo (ns)", "RPQ iso", "RPQ colo",
           "rowmiss iso", "rowmiss colo"});
  for (const auto& r : rows)
    a.row({std::to_string(r.n), Table::num(r.iso.lfb_latency_ns, 1),
           Table::num(r.colo.lfb_latency_ns, 1), Table::num(r.iso.avg_rpq_occupancy, 1),
           Table::num(r.colo.avg_rpq_occupancy, 1),
           Table::pct(r.iso.row_miss_ratio_read * 100),
           Table::pct(r.colo.row_miss_ratio_read * 100)});
  a.print();

  banner("Fig 8(d,e,f): P2M-Write latency, WPQ backpressure, IIO credits");
  Table d({"C2M cores", "P2M-Write lat (ns)", "WPQ full", "IIO wr occ", "IIO wr max",
           "P2M GB/s"});
  for (const auto& r : rows)
    d.row({std::to_string(r.n), Table::num(r.colo.p2m_write.latency_ns, 1),
           Table::pct(r.colo.wpq_full_fraction * 100),
           Table::num(r.colo.p2m_write.credits_in_use, 1),
           Table::num(r.colo.p2m_write.max_credits_used, 0),
           Table::num(r.colo.p2m_dev_gbps, 1)});
  d.print();

  banner("Fig 8 phase 2: CHA write backlog and admission delay (colocated)");
  Table p({"C2M cores", "N_waiting", "C2M-Write lat (ns)", "adm wait C2M-W (ns)",
           "adm wait P2M-W (ns)"});
  for (const auto& r : rows)
    p.row({std::to_string(r.n), Table::num(r.colo.n_waiting, 1),
           Table::num(r.colo.c2m_write.latency_ns, 1),
           Table::num(r.colo.cha_admission_wait_ns[1], 1),
           Table::num(r.colo.cha_admission_wait_ns[3], 1)});
  p.print();
  return 0;
}
