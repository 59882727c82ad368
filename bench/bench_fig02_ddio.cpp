// Figure 2: DDIO can worsen C2M performance degradation when the P2M
// working set does not fit in the cache (Cascade Lake; Redis and GAPBS
// colocated with FIO sequential reads, DDIO on vs off).
//
// Mechanism as modeled (DESIGN.md): with DDIO on, inbound DMA writes
// allocate in the LLC's DDIO ways and the *evicted victims'* write-backs
// reach memory in hashed-set order, destroying the DMA stream's row
// locality and inflating MC queueing -- which hurts the colocated C2M app.
// P2M bandwidth itself is unchanged (same write volume), matching the
// paper's Figure 2(c,d).
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

/// One app's sweep: per core count, the colocation with DDIO off [0] and on [1].
struct Case {
  const char* title;
  core::C2MSpec base;
  std::vector<std::array<core::ColocationRef, 2>> points;
};

void plan_case(core::Plan& plan, Case& c, const std::vector<std::uint32_t>& cores) {
  auto opt = core::default_run_options();
  // DDIO's victim stream needs the DDIO ways warmed (4 MB at 14 GB/s).
  opt.warmup = std::max(opt.warmup, us(600));
  for (auto n : cores) {
    core::C2MSpec c2m = c.base;
    c2m.cores = n;
    std::array<core::ColocationRef, 2> refs;
    for (int ddio = 0; ddio < 2; ++ddio) {
      core::HostConfig host = core::cascade_lake();
      host.cha.ddio = ddio == 1;
      core::P2MSpec p2m;
      p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
      refs[ddio] = plan.colocation(host, c2m, p2m, opt);
    }
    c.points.push_back(refs);
  }
}

void print_case(const Case& c, const core::Outcomes& out,
                const std::vector<std::uint32_t>& cores) {
  banner(c.title);
  Table t({"C2M cores", "C2M degr (DDIO on)", "C2M degr (DDIO off)", "P2M degr (on)",
           "P2M degr (off)", "P2M mem GB/s (on/off)"});
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const auto off = out[c.points[i][0]];
    const auto on = out[c.points[i][1]];
    t.row({std::to_string(cores[i]), Table::num(on.c2m_degradation()) + "x",
           Table::num(off.c2m_degradation()) + "x", Table::num(on.p2m_degradation()) + "x",
           Table::num(off.p2m_degradation()) + "x",
           Table::num(on.colo.metrics.p2m_mem_gbps(), 1) + " / " +
               Table::num(off.colo.metrics.p2m_mem_gbps(), 1)});
  }
  t.print();
}

}  // namespace

int main() {
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};
  Case redis{"Fig 2(a,c): Redis + P2M-Write, DDIO on vs off (Cascade Lake)", {}, {}};
  redis.base.workload = workloads::redis_read(workloads::c2m_core_region(0));
  Case gapbs{"Fig 2(b,d): GAPBS-PR + P2M-Write, DDIO on vs off (Cascade Lake)", {}, {}};
  gapbs.base.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
  gapbs.base.per_core_region = false;

  core::Plan plan;
  plan_case(plan, redis, cores);
  plan_case(plan, gapbs, cores);
  const auto out = core::execute(plan);
  print_case(redis, out, cores);
  print_case(gapbs, out, cores);
  return 0;
}
