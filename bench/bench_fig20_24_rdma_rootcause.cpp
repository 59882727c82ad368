// Figures 20-24 (Appendix D.1): root-cause measurements for the RDMA case
// study.
//
//   Fig 20: quadrant 1 (C2M-Read + ib_write_bw) counters
//   Fig 21: quadrant 2 (C2M-Read + ib_read_bw) counters
//   Fig 22: quadrant 3 (C2M-ReadWrite + ib_write_bw) counters + PFC pauses
//   Fig 23: microsecond-scale IIO write-buffer occupancy timeline in
//           quadrant 3 (PFC keeps the IIO buffer full)
//   Fig 24: quadrant 4 (C2M-ReadWrite + ib_read_bw) counters
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/rdma.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

struct Quadrant {
  const char* title;
  bool c2m_writes;
  bool p2m_writes;
  std::vector<std::size_t> windows;  ///< colocated window per C2M core count
};

const std::vector<std::uint32_t> kCores{1, 2, 3, 4, 5, 6};

void plan_quadrant(core::Plan& plan, Quadrant& q, const core::HostConfig& host) {
  const auto opt = core::default_run_options();
  const core::P2MSpec p2m = q.p2m_writes ? net::rdma_write_p2m() : net::rdma_read_p2m();
  for (auto n : kCores) {
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = n;
    q.windows.push_back(plan.add(host, c2m, p2m, opt));
  }
}

void print_quadrant(const Quadrant& q, const core::Outcomes& out) {
  banner(q.title);
  Table t({"C2M cores", "LFB lat (ns)", "RPQ occ", "rowmiss rd",
           q.p2m_writes ? "P2M-W lat (ns)" : "P2M-R inflight@CHA",
           q.p2m_writes ? "IIO wr occ" : "IIO rd occ", "WPQ full", "PFC pause"});
  for (std::size_t i = 0; i < kCores.size(); ++i) {
    const auto& o = out[q.windows[i]];
    const auto& m = o.metrics;
    t.row({std::to_string(kCores[i]), Table::num(m.lfb_latency_ns, 1),
           Table::num(m.avg_rpq_occupancy, 1), Table::pct(m.row_miss_ratio_read * 100),
           q.p2m_writes ? Table::num(m.p2m_write.latency_ns, 1)
                        : Table::num(m.p2m_reads_in_flight_at_cha, 1),
           q.p2m_writes ? Table::num(m.p2m_write.credits_in_use, 1)
                        : Table::num(m.p2m_read.credits_in_use, 1),
           Table::pct(m.wpq_full_fraction * 100), Table::pct(o.pause_fraction * 100)});
  }
  t.print();
}

}  // namespace

int main() {
  const core::HostConfig host = core::cascade_lake();
  Quadrant quads[] = {
      {"Fig 20: RDMA quadrant 1 (C2M-Read + ib_write_bw)", false, true, {}},
      {"Fig 21: RDMA quadrant 2 (C2M-Read + ib_read_bw)", false, false, {}},
      {"Fig 22: RDMA quadrant 3 (C2M-ReadWrite + ib_write_bw)", true, true, {}},
      {"Fig 24: RDMA quadrant 4 (C2M-ReadWrite + ib_read_bw)", true, false, {}},
  };
  core::Plan plan;
  for (Quadrant& q : quads) plan_quadrant(plan, q, host);
  const auto out = core::execute(plan);
  for (const Quadrant& q : quads) print_quadrant(q, out);

  // Fig 23: us-scale IIO write-buffer occupancy, quadrant 3, 5 C2M cores.
  banner("Fig 23: IIO write-buffer occupancy timeline (RDMA Q3, 5 C2M cores)");
  {
    core::HostSystem sys(host, 1);
    for (std::uint32_t i = 0; i < 5; ++i)
      sys.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
    const auto nic = net::attach_rdma_write_nic(sys);
    sys.run(us(400), us(10));
    Table t({"t (us)", "IIO wr occupancy", "NIC paused"});
    for (int i = 0; i < 40; ++i) {
      sys.run_more(us(1));
      t.row({std::to_string(i + 1), std::to_string(sys.iio().write_station().occupancy()),
             nic->paused() ? "yes" : "no"});
    }
    t.print();
    std::printf("(PFC keeps enough data queued at the NIC to hold the IIO buffer\n"
                " near its %u-credit capacity, matching the paper's Figure 23.)\n",
                host.iio.write_credits);
  }
  return 0;
}
