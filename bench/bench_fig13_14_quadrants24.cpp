// Figures 13 & 14 (Appendix A): root-cause measurements for quadrants 2
// (C2M-Read + P2M-Read) and 4 (C2M-ReadWrite + P2M-Read).
//
// Both show the blue regime driven by MC read queueing (latency inflation,
// RPQ occupancy, row misses) with P2M-Read protected by its large spare
// credit pool: in-flight P2M reads at the CHA stay far below the IIO read
// buffer limit.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void run_quadrant(const char* title, const core::HostConfig& host, bool c2m_writes) {
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};
  core::C2MSpec c2m;
  c2m.workload = c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                            : workloads::c2m_read(workloads::c2m_core_region(0));
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_read(host, workloads::p2m_region());

  // Two measurement windows (iso, colo) per core count, all independent --
  // run them as one plan on the executor.
  core::Plan plan;
  for (auto n : cores) {
    c2m.cores = n;
    plan.add(host, c2m, std::nullopt, opt);
    plan.add(host, c2m, p2m, opt);
  }
  const auto results = core::execute(plan);

  banner(title);
  Table t({"C2M cores", "LFB iso (ns)", "LFB colo (ns)", "RPQ iso", "RPQ colo",
           "rowmiss iso", "rowmiss colo", "P2M rd inflight@CHA (max)", "P2M GB/s"});
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const auto n = cores[i];
    const auto& iso = results[2 * i].metrics;
    const auto& colo = results[2 * i + 1].metrics;
    t.row({std::to_string(n), Table::num(iso.lfb_latency_ns, 1),
           Table::num(colo.lfb_latency_ns, 1), Table::num(iso.avg_rpq_occupancy, 1),
           Table::num(colo.avg_rpq_occupancy, 1), Table::pct(iso.row_miss_ratio_read * 100),
           Table::pct(colo.row_miss_ratio_read * 100),
           std::to_string(colo.p2m_reads_in_flight_at_cha_max),
           Table::num(colo.p2m_dev_gbps, 1)});
  }
  t.print();
}

}  // namespace

int main() {
  const core::HostConfig host = core::cascade_lake();
  run_quadrant("Fig 13 (Appendix A): quadrant 2 -- C2M-Read + P2M-Read", host, false);
  run_quadrant("Fig 14 (Appendix A): quadrant 4 -- C2M-ReadWrite + P2M-Read", host, true);
  std::printf("\nIIO read-buffer credit limit: %u cachelines (in-flight stays below it:\n"
              "spare credits are why P2M-Read tolerates the latency inflation)\n",
              host.iio.read_credits);
  return 0;
}
