// Figure 12: breakdown of the analytical formula's queueing-delay
// components for all four quadrants (switching delay, write/read
// head-of-line blocking, top-of-queue PRE/ACT delay; plus the CHA
// admission delay for quadrant 3).
#include <iterator>
#include <string>
#include <vector>

#include "analytic/formula.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void print_read_breakdown(const char* title, const std::vector<std::uint32_t>& cores,
                          const std::vector<core::Metrics>& ms, const dram::Timing& t,
                          bool with_cha) {
  banner(title);
  std::vector<std::string> hdr{"C2M cores", "Switching", "WriteHoL", "ReadHoL",
                               "TopOfQueue"};
  if (with_cha) hdr.push_back("CHA adm delay");
  Table tab(hdr);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto in = analytic::inputs_from_metrics(ms[i]);
    const auto b = analytic::read_queueing_delay(in, t);
    std::vector<std::string> row{std::to_string(cores[i]),
                                 Table::num(b.switching_ns, 1) + "ns",
                                 Table::num(b.hol_other_ns, 1) + "ns",
                                 Table::num(b.hol_same_ns, 1) + "ns",
                                 Table::num(b.top_of_queue_ns, 1) + "ns"};
    if (with_cha)
      row.push_back(Table::num(ms[i].cha_admission_wait_ns[0] +
                                   ms[i].cha_admission_wait_ns[1],
                               1) +
                    "ns");
    tab.row(row);
  }
  tab.print();
}

void print_write_breakdown(const char* title, const std::vector<std::uint32_t>& cores,
                           const std::vector<core::Metrics>& ms, const dram::Timing& t) {
  banner(title);
  Table tab({"C2M cores", "Switching", "ReadHoL", "WriteHoL", "TopOfQueue",
             "P_fill", "CHA adm delay"});
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto in = analytic::inputs_from_metrics(ms[i]);
    const auto b = analytic::write_waiting_time(in, t);
    tab.row({std::to_string(cores[i]), Table::num(in.p_fill_wpq * b.switching_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.hol_other_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.hol_same_ns, 1) + "ns",
             Table::num(in.p_fill_wpq * b.top_of_queue_ns, 1) + "ns",
             Table::num(in.p_fill_wpq, 2),
             Table::num(ms[i].cha_admission_wait_ns[3], 1) + "ns"});
  }
  tab.print();
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
  // The last entry, quadrant 3, gets both C2M (read) and P2M (write)
  // breakdowns plus the CHA delay.
  const Quad quads[] = {
      {"Fig 12(a): quadrant 1 C2M read-delay breakdown", false, true},
      {"Fig 12(b): quadrant 2 C2M read-delay breakdown", false, false},
      {"Fig 12(c): quadrant 4 C2M read-delay breakdown", true, false},
      {"Fig 12(d): quadrant 3 C2M read-delay breakdown (+CHA)", true, true},
  };

  core::Plan plan;  // window q * cores.size() + i: quadrant q at cores[i]
  for (const auto& q : quads) {
    core::C2MSpec c2m;
    c2m.workload = q.c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                                : workloads::c2m_read(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.storage = q.p2m_writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                               : workloads::fio_p2m_read(host, workloads::p2m_region());
    for (auto n : cores) {
      c2m.cores = n;
      plan.add(host, c2m, p2m, opt);
    }
  }
  const auto out = core::execute(plan);

  for (std::size_t qi = 0; qi < std::size(quads); ++qi) {
    std::vector<core::Metrics> ms;
    for (std::size_t i = 0; i < cores.size(); ++i)
      ms.push_back(out[qi * cores.size() + i].metrics);
    const bool q3 = quads[qi].c2m_writes && quads[qi].p2m_writes;
    print_read_breakdown(quads[qi].name, cores, ms, host.mc.timing, q3);
    if (q3)
      print_write_breakdown("Fig 12(e): quadrant 3 P2M write-delay breakdown (+CHA)", cores,
                            ms, host.mc.timing);
  }
  return 0;
}
