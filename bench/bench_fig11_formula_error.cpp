// Figure 11: accuracy of the analytical formulae (section 6).
//
// For every quadrant and C2M core count, feed the measured counter inputs
// (Table 2) into the read/write domain-latency formulae, estimate
// throughput via the domain law, and report the relative error vs the
// measured throughput. Positive = overestimation.
//
// Quadrants 1/2/4 report C2M error; quadrant 3 reports both C2M and P2M,
// with and without the CHA admission-delay correction (the paper's fix for
// the >4-core regime where CHA backpressure inflates both domains).
#include <string>
#include <vector>

#include "analytic/formula.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

/// The calibration windows: unloaded C2M-Read (a single isolated core),
/// unloaded P2M-Write (the low-load 4KB QD1 probe) and isolated P2M-Read,
/// which at low load is link-limited with spare credits (L = O*64/T).
struct Calibration {
  std::size_t c2m_read, p2m_write, p2m_read;
};

Calibration plan_calibration(core::Plan& plan, const core::HostConfig& host,
                             const core::RunOptions& opt) {
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 1;
  core::P2MSpec probe;
  probe.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());
  core::P2MSpec rd;
  rd.storage = workloads::fio_p2m_read(host, workloads::p2m_region());
  return Calibration{plan.add(host, c2m, std::nullopt, opt),
                     plan.add(host, std::nullopt, probe, opt),
                     plan.add(host, std::nullopt, rd, opt)};
}

analytic::Constants constants_from(const Calibration& cal, const core::Outcomes& out) {
  analytic::Constants c;
  c.c2m_read_ns = out[cal.c2m_read].metrics.lfb_latency_ns;
  c.p2m_write_ns = out[cal.p2m_write].metrics.p2m_write.latency_ns;
  c.p2m_read_ns = out[cal.p2m_read].metrics.p2m_read.latency_ns;
  c.c2m_write_ns = 10.0;
  return c;
}

double measured_gbps(analytic::DomainKind kind, const core::Metrics& m) {
  switch (kind) {
    case analytic::DomainKind::kC2MRead:
    case analytic::DomainKind::kC2MReadWrite:
      return m.c2m_read.throughput_gbps;
    case analytic::DomainKind::kP2MRead:
      return m.p2m_read.throughput_gbps;
    case analytic::DomainKind::kP2MWrite:
      return m.p2m_write.throughput_gbps;
  }
  return 0;
}

}  // namespace

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
      {"Quadrant 1 (C2M-Read + P2M-Write)", false, true},
      {"Quadrant 2 (C2M-Read + P2M-Read)", false, false},
      {"Quadrant 3 (C2M-ReadWrite + P2M-Write)", true, true},
      {"Quadrant 4 (C2M-ReadWrite + P2M-Read)", true, false},
  };

  // Calibration and every colocated window in one plan; colo[q][i] is
  // quadrant q at cores[i].
  core::Plan plan;
  const Calibration cal = plan_calibration(plan, host, opt);
  std::vector<std::vector<std::size_t>> colo;
  for (const auto& q : quads) {
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.storage = q.p2m_writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                               : workloads::fio_p2m_read(host, workloads::p2m_region());
    colo.emplace_back();
    for (auto n : cores) {
      c2m.cores = n;
      colo.back().push_back(plan.add(host, c2m, p2m, opt));
    }
  }
  const auto out = core::execute(plan);
  const auto constants = constants_from(cal, out);

  for (std::size_t qi = 0; qi < colo.size(); ++qi) {
    const Quad& q = quads[qi];
    const auto c2m_kind = q.c2m_writes ? analytic::DomainKind::kC2MReadWrite
                                       : analytic::DomainKind::kC2MRead;
    const auto p2m_kind =
        q.p2m_writes ? analytic::DomainKind::kP2MWrite : analytic::DomainKind::kP2MRead;

    banner(std::string("Fig 11: formula error, ") + q.name);
    Table t({"C2M cores", "C2M err", "C2M err (+CHA)", "P2M err", "P2M err (+CHA)"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto& m = out[colo[qi][i]].metrics;
      const auto e_c = analytic::estimate(c2m_kind, m, host.mc.timing, constants);
      const auto e_cc = analytic::estimate(c2m_kind, m, host.mc.timing, constants,
                                           {.add_cha_admission_delay = true});
      const auto e_p = analytic::estimate(p2m_kind, m, host.mc.timing, constants);
      const auto e_pc = analytic::estimate(p2m_kind, m, host.mc.timing, constants,
                                           {.add_cha_admission_delay = true});
      t.row({std::to_string(cores[i]),
             Table::pct(relative_error_pct(e_c.throughput_gbps, measured_gbps(c2m_kind, m))),
             Table::pct(relative_error_pct(e_cc.throughput_gbps, measured_gbps(c2m_kind, m))),
             Table::pct(relative_error_pct(e_p.throughput_gbps, measured_gbps(p2m_kind, m))),
             Table::pct(relative_error_pct(e_pc.throughput_gbps, measured_gbps(p2m_kind, m)))});
    }
    t.print();
  }
  return 0;
}
