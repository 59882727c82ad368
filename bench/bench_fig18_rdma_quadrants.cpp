// Figure 18 (Appendix C.1): the blue and red regimes across the four
// quadrants with RDMA (RoCE/PFC) generating the P2M traffic.
//
//   ib_write_bw -> P2M-Write at the server (quadrants 1 and 3)
//   ib_read_bw  -> P2M-Read at the server  (quadrants 2 and 4)
//
// The NIC generates slightly lower P2M load than the SSDs (~98 Gbps vs
// ~112 Gbps), so degradations are slightly milder than Figure 3.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "net/rdma.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};

  struct Quad {
    const char* title;
    bool c2m_writes;
    bool p2m_writes;
  };
  const Quad quads[] = {
      {"RDMA Quadrant 1: C2M-Read + ib_write_bw (P2M-Write)", false, true},
      {"RDMA Quadrant 2: C2M-Read + ib_read_bw (P2M-Read)", false, false},
      {"RDMA Quadrant 3: C2M-ReadWrite + ib_write_bw (P2M-Write)", true, true},
      {"RDMA Quadrant 4: C2M-ReadWrite + ib_read_bw (P2M-Read)", true, false},
  };

  core::Plan plan;
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const auto& q : quads) {
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    const core::P2MSpec p2m = q.p2m_writes ? net::rdma_write_p2m() : net::rdma_read_p2m();
    sweeps.push_back(plan.core_sweep(host, c2m, p2m, cores, opt));
  }
  const auto out = core::execute(plan);

  for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
    banner(quads[qi].title);
    Table t({"C2M cores", "C2M degr", "RoCE degr", "C2M mem GB/s", "P2M mem GB/s",
             "PFC pause"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto o = out[sweeps[qi][i]];
      t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x",
             Table::num(o.colo.metrics.c2m_mem_gbps(), 1),
             Table::num(o.colo.metrics.p2m_mem_gbps(), 1),
             Table::pct(o.colo.pause_fraction * 100)});
    }
    t.print();
  }
  return 0;
}
