// Figure 3: the blue and red regimes across the four C2M x P2M read/write
// quadrants on Cascade Lake (prefetching and DDIO disabled).
//
// For each quadrant, prints (per C2M core count): C2M and P2M throughput
// degradation (isolated/colocated) and the colocated memory-bandwidth
// breakdown -- the left/right columns of each quadrant in the figure.
//
// All four sweeps run as one plan on the executor (HOSTNET_THREADS to cap);
// results are bit-identical to running the windows one by one.
#include <cstdio>
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

  struct Quadrant {
    const char* title;
    bool c2m_writes;
    bool p2m_writes;
  };
  const Quadrant quadrants[] = {
      {"Quadrant 1: C2M-Read + P2M-Write", false, true},
      {"Quadrant 2: C2M-Read + P2M-Read", false, false},
      {"Quadrant 3: C2M-ReadWrite + P2M-Write", true, true},
      {"Quadrant 4: C2M-ReadWrite + P2M-Read", true, false},
  };

  core::Plan plan;
  std::vector<std::vector<core::ColocationRef>> sweeps;
  for (const auto& q : quadrants) {
    core::C2MSpec c2m;
    c2m.name = q.c2m_writes ? "C2M-ReadWrite" : "C2M-Read";
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.name = q.p2m_writes ? "P2M-Write" : "P2M-Read";
    p2m.storage = q.p2m_writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                               : workloads::fio_p2m_read(host, workloads::p2m_region());

    sweeps.push_back(plan.core_sweep(host, c2m, p2m, cores, opt));
  }
  const auto out = core::execute(plan);

  for (std::size_t qi = 0; qi < sweeps.size(); ++qi) {
    banner(quadrants[qi].title);
    Table t({"C2M cores", "C2M degr", "P2M degr", "C2M GB/s", "P2M GB/s", "mem total",
             "regime"});
    for (std::size_t i = 0; i < sweeps[qi].size(); ++i) {
      const auto o = out[sweeps[qi][i]];
      const auto& m = o.colo.metrics;
      t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x", Table::num(m.c2m_mem_gbps(), 1),
             Table::num(m.p2m_mem_gbps(), 1), Table::num(m.total_mem_gbps(), 1),
             core::to_string(o.regime())});
    }
    t.print();
  }
  return 0;
}
