// Figures 15-17 (Appendix B): application results with all C2M/P2M
// read/write combinations, DDIO on vs off (Cascade Lake).
//
//   Fig 15: Redis-Write and GAPBS-BC (C2M-ReadWrite) + P2M-Write
//   Fig 16: Redis-Read and GAPBS-PR (C2M-Read)      + P2M-Read
//   Fig 17: Redis-Write and GAPBS-BC (C2M-ReadWrite) + P2M-Read
//
// Expected trends: C2M apps degrade, P2M is unaffected; DDIO worsens C2M
// degradation only when colocated with P2M-Write (LLC allocations /
// evictions); with P2M-Read, DDIO on/off is identical.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

const std::vector<std::uint32_t> kCores{1, 2, 4, 6};

/// One app x P2M combination: per core count, the colocation with DDIO off
/// [0] and on [1].
struct Combo {
  const char* title;
  std::vector<std::array<core::ColocationRef, 2>> points;
};

Combo plan_combo(core::Plan& plan, const char* title, const core::C2MSpec& base,
                 bool p2m_writes) {
  auto opt = core::default_run_options();
  opt.warmup = std::max(opt.warmup, us(600));
  Combo combo{title, {}};
  for (auto n : kCores) {
    core::C2MSpec c2m = base;
    c2m.cores = n;
    std::array<core::ColocationRef, 2> refs;
    for (int ddio = 0; ddio < 2; ++ddio) {
      core::HostConfig host = core::cascade_lake();
      host.cha.ddio = ddio == 1;
      core::P2MSpec p2m;
      p2m.storage = p2m_writes ? workloads::fio_p2m_write(host, workloads::p2m_region())
                               : workloads::fio_p2m_read(host, workloads::p2m_region());
      refs[ddio] = plan.colocation(host, c2m, p2m, opt);
    }
    combo.points.push_back(refs);
  }
  return combo;
}

void print_combo(const Combo& combo, const core::Outcomes& out) {
  banner(combo.title);
  Table t({"C2M cores", "C2M degr (DDIO on)", "C2M degr (DDIO off)", "P2M degr (on)",
           "P2M degr (off)"});
  for (std::size_t i = 0; i < kCores.size(); ++i) {
    const auto off = out[combo.points[i][0]];
    const auto on = out[combo.points[i][1]];
    t.row({std::to_string(kCores[i]), Table::num(on.c2m_degradation()) + "x",
           Table::num(off.c2m_degradation()) + "x", Table::num(on.p2m_degradation()) + "x",
           Table::num(off.p2m_degradation()) + "x"});
  }
  t.print();
}

core::C2MSpec redis_write_spec() {
  core::C2MSpec s;
  s.name = "Redis-Write";
  s.workload = workloads::redis_write(workloads::c2m_core_region(0));
  return s;
}

core::C2MSpec redis_read_spec() {
  core::C2MSpec s;
  s.name = "Redis-Read";
  s.workload = workloads::redis_read(workloads::c2m_core_region(0));
  return s;
}

core::C2MSpec gapbs_bc_spec() {
  core::C2MSpec s;
  s.name = "GAPBS-BC";
  s.workload = workloads::gapbs_bc(workloads::c2m_shared_region());
  s.per_core_region = false;
  return s;
}

core::C2MSpec gapbs_pr_spec() {
  core::C2MSpec s;
  s.name = "GAPBS-PR";
  s.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
  s.per_core_region = false;
  return s;
}

}  // namespace

int main() {
  core::Plan plan;
  const Combo combos[] = {
      plan_combo(plan, "Fig 15: Redis-Write (C2M-RW) + P2M-Write", redis_write_spec(), true),
      plan_combo(plan, "Fig 15: GAPBS-BC (C2M-RW) + P2M-Write", gapbs_bc_spec(), true),
      plan_combo(plan, "Fig 16: Redis-Read (C2M-Read) + P2M-Read", redis_read_spec(), false),
      plan_combo(plan, "Fig 16: GAPBS-PR (C2M-Read) + P2M-Read", gapbs_pr_spec(), false),
      plan_combo(plan, "Fig 17: Redis-Write (C2M-RW) + P2M-Read", redis_write_spec(), false),
      plan_combo(plan, "Fig 17: GAPBS-BC (C2M-RW) + P2M-Read", gapbs_bc_spec(), false),
  };
  const auto out = core::execute(plan);
  for (const Combo& c : combos) print_combo(c, out);
  return 0;
}
