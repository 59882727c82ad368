// Figure 1: the new phenomenon with real applications on Ice Lake --
// Redis (YCSB-C) and GAPBS (PageRank) colocated with FIO sequential reads.
// C2M app performance degrades while the P2M app is unaffected, even
// though memory bandwidth is far from saturated.
//
// (a,b) performance degradation vs number of C2M cores
// (c,d) colocated memory bandwidth utilization, split C2M/P2M
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

struct App {
  const char* title;
  core::C2MSpec c2m;
  std::vector<core::ColocationRef> sweep;
};

void print_app(const App& app, const core::HostConfig& host, const core::Outcomes& out,
               const std::vector<std::uint32_t>& cores) {
  banner(app.title);
  Table t({"C2M cores", "C2M degr", "P2M degr", "C2M mem GB/s", "P2M mem GB/s",
           "mem util", "P2M GB/s"});
  for (std::size_t i = 0; i < app.sweep.size(); ++i) {
    const auto o = out[app.sweep[i]];
    const auto& m = o.colo.metrics;
    t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
           Table::num(o.p2m_degradation()) + "x", Table::num(m.c2m_mem_gbps(), 1),
           Table::num(m.p2m_mem_gbps(), 1),
           Table::pct(m.total_mem_gbps() / host.dram_peak_gb_per_s() * 100),
           Table::num(o.colo.p2m_score, 1)});
  }
  t.print();
}

}  // namespace

int main() {
  core::HostConfig host = core::ice_lake();
  // The Ice Lake testbed runs with DDIO permanently enabled (section 2.1).
  host.cha.ddio = true;
  const std::vector<std::uint32_t> cores{4, 8, 12, 16, 20, 24, 28};
  const auto opt = core::default_run_options();
  core::P2MSpec p2m;
  p2m.name = "FIO";
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  App redis{"Fig 1(a,c): Redis + FIO on Ice Lake (queries/s degradation)", {}, {}};
  redis.c2m.name = "Redis (YCSB-C)";
  redis.c2m.workload = workloads::redis_read(workloads::c2m_core_region(0));
  App gapbs{"Fig 1(b,d): GAPBS-PR + FIO on Ice Lake (slowdown = degradation)", {}, {}};
  gapbs.c2m.name = "GAPBS PageRank";
  gapbs.c2m.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
  gapbs.c2m.per_core_region = false;  // one shared graph

  // Both sweeps in one plan: the executor runs their windows side by side.
  core::Plan plan;
  for (App* app : {&redis, &gapbs}) app->sweep = plan.core_sweep(host, app->c2m, p2m, cores, opt);
  const auto out = core::execute(plan);
  print_app(redis, host, out, cores);
  print_app(gapbs, host, out, cores);
  return 0;
}
