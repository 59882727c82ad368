// Extension (paper section 7): configuration-driven performance predictor
// vs the simulator, across the four quadrants. Unlike the section-6
// formula (which consumes *measured* counters), the predictor consumes
// only the host configuration and the offered workload.
#include <string>
#include <vector>

#include "analytic/predictor.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();

  struct Quad {
    const char* name;
    bool c2m_writes;
    bool p2m_writes;
  };
  const Quad quads[] = {
      {"Quadrant 1 (C2M-Read + P2M-Write)", false, true},
      {"Quadrant 2 (C2M-Read + P2M-Read)", false, false},
      {"Quadrant 3 (C2M-ReadWrite + P2M-Write)", true, true},
      {"Quadrant 4 (C2M-ReadWrite + P2M-Read)", true, false},
  };

  for (const auto& q : quads) {
    banner(std::string("Predictor vs simulator: ") + q.name);
    Table t({"C2M cores", "C2M sim", "C2M pred", "err", "P2M sim", "P2M pred", "err",
             "regime pred/sim"});
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.storage = q.p2m_writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                               : workloads::fio_p2m_read(host, workloads::p2m_region());
    const std::vector<std::uint32_t> cores{1, 2, 4, 6};
    core::Plan plan;
    const auto sweep = plan.core_sweep(host, c2m, p2m, cores, opt);
    const auto out = core::execute(plan);
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const std::uint32_t n = cores[i];
      const auto sim = out[sweep[i]];

      analytic::PredictorWorkload wl;
      wl.c2m_cores = n;
      wl.c2m_writes = q.c2m_writes;
      wl.p2m_write_offered_gbps = q.p2m_writes ? host.pcie_write_gb_per_s : 0;
      wl.p2m_read_offered_gbps = q.p2m_writes ? 0 : host.pcie_read_gb_per_s;
      const auto pred = analytic::predict(host, wl);

      const double sim_c2m = sim.colo.c2m_score;
      const double sim_p2m = sim.colo.p2m_score;
      const double pred_p2m = pred.p2m_write_gbps + pred.p2m_read_gbps;
      t.row({std::to_string(n), Table::num(sim_c2m, 1), Table::num(pred.c2m_gbps, 1),
             Table::pct(relative_error_pct(pred.c2m_gbps, sim_c2m), 0),
             Table::num(sim_p2m, 1), Table::num(pred_p2m, 1),
             Table::pct(relative_error_pct(pred_p2m, sim_p2m), 0),
             core::to_string(pred.regime) + "/" + core::to_string(sim.regime())});
    }
    t.print();
  }
  std::printf("\nThe predictor needs no simulation or measurement: it closes the\n"
              "section-6 formula with first-order models of its inputs. Expect\n"
              "coarser accuracy than Figure 11; its value is fast what-if sweeps.\n");
  return 0;
}
