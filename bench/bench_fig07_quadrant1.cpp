// Figure 7: root-cause measurements for quadrant 1 (C2M-Read + P2M-Write).
//
// (a) C2M-Read domain latency (isolated vs colocated)
// (b) average RPQ occupancy (with vs without P2M)
// (c) row miss ratio of C2M reads (with vs without P2M)
// (d) bank-deviation CDF points (load imbalance across banks)
// (e) P2M-Write domain latency vs C2M cores
// (f) fraction of time the WPQ is full
// (g) P2M-Write domain credit utilization (IIO write-buffer occupancy)
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
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  core::Plan plan;
  const auto sweep = plan.core_sweep(host, c2m, p2m, cores, opt);
  const auto out = core::execute(plan);
  struct Row {
    std::uint32_t n;
    core::Metrics iso;
    core::Metrics colo;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < cores.size(); ++i)
    rows.push_back(Row{cores[i], out[sweep[i].iso_c2m].metrics, out[sweep[i].colo].metrics});

  banner("Fig 7(a,b,c): C2M-Read domain latency, RPQ occupancy, row miss ratio");
  Table a({"C2M cores", "lat iso (ns)", "lat colo (ns)", "RPQ iso", "RPQ colo",
           "rowmiss iso", "rowmiss colo"});
  for (const auto& r : rows)
    a.row({std::to_string(r.n), Table::num(r.iso.lfb_latency_ns, 1),
           Table::num(r.colo.lfb_latency_ns, 1), Table::num(r.iso.avg_rpq_occupancy, 1),
           Table::num(r.colo.avg_rpq_occupancy, 1),
           Table::pct(r.iso.row_miss_ratio_read * 100),
           Table::pct(r.colo.row_miss_ratio_read * 100)});
  a.print();

  banner("Fig 7(d): bank deviation CDF (1 C2M core; max/mean bank load per 1000 reads)");
  {
    Table d({"quantile", "isolated", "colocated"});
    for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99})
      d.row({Table::num(q, 2), Table::num(rows[0].iso.bank_deviation.quantile(q), 2) + "x",
             Table::num(rows[0].colo.bank_deviation.quantile(q), 2) + "x"});
    d.row({"frac >= 1.5x", Table::pct(rows[0].iso.bank_deviation.fraction_at_least(1.5) * 100),
           Table::pct(rows[0].colo.bank_deviation.fraction_at_least(1.5) * 100)});
    d.row({"frac >= 2.0x", Table::pct(rows[0].iso.bank_deviation.fraction_at_least(2.0) * 100),
           Table::pct(rows[0].colo.bank_deviation.fraction_at_least(2.0) * 100)});
    d.print();
  }

  banner("Fig 7(e,f,g): P2M-Write latency, WPQ-full fraction, IIO credit utilization");
  Table e({"C2M cores", "P2M-Write lat (ns)", "WPQ full", "IIO wr occ (avg)",
           "IIO wr occ (max)", "P2M GB/s"});
  {
    const auto& iso_p2m = out[sweep.front().iso_p2m].metrics;
    e.row({"0", Table::num(iso_p2m.p2m_write.latency_ns, 1),
           Table::pct(iso_p2m.wpq_full_fraction * 100),
           Table::num(iso_p2m.p2m_write.credits_in_use, 1),
           Table::num(iso_p2m.p2m_write.max_credits_used, 0),
           Table::num(iso_p2m.p2m_dev_gbps, 1)});
  }
  for (const auto& r : rows)
    e.row({std::to_string(r.n), Table::num(r.colo.p2m_write.latency_ns, 1),
           Table::pct(r.colo.wpq_full_fraction * 100),
           Table::num(r.colo.p2m_write.credits_in_use, 1),
           Table::num(r.colo.p2m_write.max_credits_used, 0),
           Table::num(r.colo.p2m_dev_gbps, 1)});
  e.print();
  return 0;
}
