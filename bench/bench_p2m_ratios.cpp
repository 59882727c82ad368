// Appendix-B companion: sweeping the P2M read/write mix. The paper's
// quadrants use pure P2M-Read or pure P2M-Write; real storage workloads
// mix both. The sweep shows how the colocated equilibrium interpolates
// between quadrants 1 and 2 (for C2M-Read) and 3 and 4 (for C2M-RW): the
// write component is what triggers the red regime.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();

  for (bool c2m_writes : {false, true}) {
    core::C2MSpec c2m;
    c2m.workload = c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                              : workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 4;
    banner(std::string("P2M read/write mix sweep, 4 cores of ") +
           (c2m_writes ? "C2M-ReadWrite" : "C2M-Read"));
    Table t({"storage write%", "C2M degr", "P2M degr", "P2M GB/s", "P2M-W lat (ns)",
             "regime"});
    const std::vector<double> mixes{0.0, 0.25, 0.5, 0.75, 1.0};
    core::Plan plan;
    std::vector<core::ColocationRef> refs;
    for (double wr_pct : mixes) {
      core::P2MSpec p2m;
      // Storage writes are host reads: host-write fraction = 1 - wr_pct.
      iio::StorageConfig sc = workloads::fio_p2m_write(host, workloads::p2m_region());
      sc.mixed_fraction = wr_pct;  // fraction flipped to host reads
      p2m.storage = sc;
      refs.push_back(plan.colocation(host, c2m, p2m, opt));
    }
    const auto out = core::execute(plan);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      const auto o = out[refs[i]];
      t.row({Table::pct(mixes[i] * 100, 0), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x", Table::num(o.colo.p2m_score, 1),
             Table::num(o.colo.metrics.p2m_write.latency_ns, 0),
             core::to_string(o.regime())});
    }
    t.print();
  }
  std::printf("\n(storage write%% = fraction of requests doing storage writes, i.e.\n"
              " host-memory reads; 0%% = the paper's P2M-Write quadrants.)\n");
  return 0;
}
