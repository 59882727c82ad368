// The paper's figures, tables, ablations, extensions and worked studies as
// plans: each figure adds its measurement windows to one shared core::Plan
// and returns the printer that renders its text from the executed outcomes.
// hostnet_figures (figures/hostnet_figures.cpp) runs the union plan of all
// of them through one core::execute and writes one file per figure;
// scripts/check_golden.sh diffs those files against bench/goldens/.
//
// A printer reads outcomes only through the indices its plan function
// recorded, so a figure's text does not depend on which other figures share
// the plan: the executor simulates a window several figures list once and
// hands each the same bit-identical outcome. Spec names are left at their
// defaults for that reason -- they are fingerprinted but never simulated,
// so a name would keep two figures from sharing a window.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "net/tcp_stack.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::figures {

/// Renders a figure's text from the outcomes of the plan it was added to.
using Printer = std::function<void(const core::Outcomes&, std::ostream&)>;

struct Figure {
  const char* name;  ///< output basename: bench/goldens/<name>.txt
  Printer (*plan)(core::Plan&);
};

/// The C2M core counts the Cascade Lake quadrant figures sweep.
inline const std::vector<std::uint32_t> kCores{1, 2, 3, 4, 5, 6};

/// One of the paper's four C2M x P2M read/write quadrants, titled per figure.
struct Quadrant {
  const char* title;
  bool c2m_writes;
  bool p2m_writes;
};

/// A quadrant's C2M microbenchmark: C2M-ReadWrite when `writes`, else
/// C2M-Read; core i streams workloads::c2m_core_region(i).
inline core::C2MSpec c2m_stream(bool writes, std::uint32_t cores = 1) {
  core::C2MSpec s;
  s.workload = writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                      : workloads::c2m_read(workloads::c2m_core_region(0));
  s.cores = cores;
  return s;
}

/// c2m_stream(writes, cores), or no C2M placement at all for 0 cores.
inline std::optional<core::C2MSpec> c2m_beside(bool writes, std::uint32_t cores) {
  return cores > 0 ? std::optional(c2m_stream(writes, cores)) : std::nullopt;
}

/// A quadrant's FIO placement on `host`: sequential P2M-Write when
/// `writes`, else P2M-Read.
inline core::P2MSpec fio_stream(const core::HostConfig& host, bool writes) {
  core::P2MSpec s;
  s.storage = writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                     : workloads::fio_p2m_read(host, workloads::p2m_region());
  return s;
}

/// The paper's DCTCP receiver (net::DctcpConfig{}) as a P2M placement.
inline core::P2MSpec dctcp_rx() {
  net::install_tcp_factory();
  core::P2MSpec p;
  p.tcp = core::TcpSpec{};
  return p;
}

// apps.cpp: real applications and DDIO.
Printer fig01_apps_icelake(core::Plan& plan);
Printer fig02_ddio(core::Plan& plan);
Printer fig15_17_apps_rw(core::Plan& plan);
// regimes.cpp: the quadrants, the domains and their root causes.
Printer fig03_quadrants(core::Plan& plan);
Printer fig06_domain_evidence(core::Plan& plan);
Printer fig07_quadrant1(core::Plan& plan);
Printer fig08_quadrant3(core::Plan& plan);
Printer fig13_14_quadrants24(core::Plan& plan);
// formula.cpp: the analytical formulae against measured windows.
Printer fig11_formula_error(core::Plan& plan);
Printer fig12_formula_breakdown(core::Plan& plan);
Printer fig27_28_rdma_formula(core::Plan& plan);
Printer fig29_30_tcp_formula(core::Plan& plan);
// network.cpp: the RDMA and DCTCP case studies.
Printer fig18_rdma_quadrants(core::Plan& plan);
Printer fig19_tcp(core::Plan& plan);
Printer fig20_24_rdma_rootcause(core::Plan& plan);
Printer fig25_26_tcp_rootcause(core::Plan& plan);
// calibration.cpp: Table 1, the loaded-latency curve, cross-generation,
// P2M read/write mixes, and the bank-mapping, credit-sizing and MC
// drain-policy ablations.
Printer table1_calibration(core::Plan& plan);
Printer loaded_latency(core::Plan& plan);
Printer crossgen(core::Plan& plan);
Printer p2m_ratios(core::Plan& plan);
Printer ablation_bank_mapping(core::Plan& plan);
Printer ablation_credits(core::Plan& plan);
Printer ablation_mc_policy(core::Plan& plan);
// extensions.cpp: section 7's extensions.
Printer ext_hostcc(core::Plan& plan);
Printer ext_isolation(core::Plan& plan);
Printer ext_multi_iio(core::Plan& plan);
Printer ext_predictor(core::Plan& plan);
Printer ext_tail_latency(core::Plan& plan);
Printer ext_tcp_stacks(core::Plan& plan);
// studies.cpp: worked capacity, placement and receive-path studies.
Printer capacity_planner(core::Plan& plan);
Printer noisy_neighbor(core::Plan& plan);
Printer netapp_rx(core::Plan& plan);

}  // namespace hostnet::figures
