// Figures 27 & 28 (Appendix E.1): the analytical formula applied to the
// RDMA case study -- throughput error per quadrant (Fig 27) and the
// formula component breakdown (Fig 28).
#include <string>
#include <vector>

#include "analytic/formula.hpp"
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
    const char* name;
    bool c2m_writes;
    bool p2m_writes;
  };
  const Quad quads[] = {
      {"RDMA Quadrant 1", false, true},
      {"RDMA Quadrant 2", false, false},
      {"RDMA Quadrant 3", true, true},
      {"RDMA Quadrant 4", true, false},
  };

  // Calibration (unloaded C2M-Read, isolated ib_write_bw and ib_read_bw) and
  // every colocated window in one plan; colo[q][i] is quadrant q at cores[i].
  core::Plan plan;
  core::C2MSpec one_core;
  one_core.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  const std::size_t cal_c2m = plan.add(host, one_core, std::nullopt, opt);
  const std::size_t cal_wr = plan.add(host, std::nullopt, net::rdma_write_p2m(), opt);
  const std::size_t cal_rd = plan.add(host, std::nullopt, net::rdma_read_p2m(), opt);
  std::vector<std::vector<std::size_t>> colo;
  for (const auto& q : quads) {
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    const core::P2MSpec p2m = q.p2m_writes ? net::rdma_write_p2m() : net::rdma_read_p2m();
    colo.emplace_back();
    for (auto n : cores) {
      c2m.cores = n;
      colo.back().push_back(plan.add(host, c2m, p2m, opt));
    }
  }
  const auto out = core::execute(plan);
  analytic::Constants constants;
  constants.c2m_read_ns = out[cal_c2m].metrics.lfb_latency_ns;
  constants.p2m_write_ns = out[cal_wr].metrics.p2m_write.latency_ns;
  constants.p2m_read_ns = out[cal_rd].metrics.p2m_read.latency_ns;

  for (std::size_t qi = 0; qi < colo.size(); ++qi) {
    const Quad& q = quads[qi];
    const auto c2m_kind = q.c2m_writes ? analytic::DomainKind::kC2MReadWrite
                                       : analytic::DomainKind::kC2MRead;
    const auto p2m_kind =
        q.p2m_writes ? analytic::DomainKind::kP2MWrite : analytic::DomainKind::kP2MRead;

    banner(std::string("Fig 27/28: formula on ") + q.name);
    Table t({"C2M cores", "C2M err (+CHA)", "P2M err (+CHA)", "Switching", "HoL other",
             "HoL same", "TopOfQueue"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto& m = out[colo[qi][i]].metrics;
      const analytic::EstimateOptions eo{.add_cha_admission_delay = true};
      const auto ec = analytic::estimate(c2m_kind, m, host.mc.timing, constants, eo);
      const auto ep = analytic::estimate(p2m_kind, m, host.mc.timing, constants, eo);
      const double meas_c = m.c2m_read.throughput_gbps;
      const double meas_p = q.p2m_writes ? m.p2m_write.throughput_gbps
                                         : m.p2m_read.throughput_gbps;
      t.row({std::to_string(cores[i]),
             Table::pct(relative_error_pct(ec.throughput_gbps, meas_c)),
             Table::pct(relative_error_pct(ep.throughput_gbps, meas_p)),
             Table::num(ec.breakdown.switching_ns, 1) + "ns",
             Table::num(ec.breakdown.hol_other_ns, 1) + "ns",
             Table::num(ec.breakdown.hol_same_ns, 1) + "ns",
             Table::num(ec.breakdown.top_of_queue_ns, 1) + "ns"});
    }
    t.print();
  }
  return 0;
}
