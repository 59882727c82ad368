// Extension (paper section 7): CHA/MC scheduling mechanisms that isolate
// C2M and P2M traffic -- peripheral write priority at the CHA->MC
// forwarding stage and a reserved tracker share for peripheral writes.
//
// Quadrant-3 sweep across isolation policies: the red regime's P2M
// collapse is a queueing-order artifact (P2M writes FIFO behind the C2M
// write-back backlog), so reordering at the CHA largely restores P2M at a
// modest C2M cost.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const auto opt = core::default_run_options();

  struct Policy {
    std::string name;
    bool priority;
    std::uint32_t reserve;
  };
  const std::vector<Policy> policies{
      {"baseline (FIFO writes)", false, 0},
      {"P2M write priority", true, 0},
      {"P2M priority + 48-entry tracker reserve", true, 48},
  };

  banner("Isolation extension: quadrant 3 (C2M-ReadWrite + P2M-Write)");
  for (const auto& pol : policies) {
    core::HostConfig host = core::cascade_lake();
    host.cha.peripheral_write_priority = pol.priority;
    host.cha.write_tracker_peripheral_reserve = pol.reserve;

    Table t({"C2M cores", "C2M degr", "P2M degr", "P2M GB/s", "P2M-W lat (ns)"});
    core::C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
    banner("policy: " + pol.name);
    core::Plan plan;
    const auto sweep = plan.core_sweep(host, c2m, p2m, {2, 4, 6}, opt);
    const auto out = core::execute(plan);
    for (const core::ColocationRef& ref : sweep) {
      const auto o = out[ref];
      t.row({std::to_string(o.colo.metrics.c2m_cores), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x", Table::num(o.colo.p2m_score, 1),
             Table::num(o.colo.metrics.p2m_write.latency_ns, 0)});
    }
    t.print();
  }
  return 0;
}
