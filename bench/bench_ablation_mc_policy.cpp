// Ablation: memory-controller write-drain policy and the red regime.
//
// Sweeps the WPQ watermarks and the read-priority dwell and reports the
// quadrant-3 equilibrium: who wins the channel, how much the P2M side
// degrades, and where the CHA backlog sits.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

struct Variant {
  std::string name;
  core::HostConfig host;
};

}  // namespace

int main() {
  const auto opt = core::default_run_options();
  std::vector<Variant> variants;
  variants.push_back({"default (hi=22 lo=8, dwell 12ns/read cap 150)", core::cascade_lake()});
  {
    Variant v{"shallow drains (hi=22 lo=16)", core::cascade_lake()};
    v.host.mc.wpq_low_wm = 16;
    variants.push_back(v);
  }
  {
    Variant v{"deep drains (hi=22 lo=2)", core::cascade_lake()};
    v.host.mc.wpq_low_wm = 2;
    variants.push_back(v);
  }
  {
    Variant v{"no read priority (dwell 0)", core::cascade_lake()};
    v.host.mc.dwell_per_queued_read = 0;
    variants.push_back(v);
  }
  {
    Variant v{"strong read priority (dwell cap 400ns)", core::cascade_lake()};
    v.host.mc.read_dwell_cap = ns(400);
    variants.push_back(v);
  }

  banner("Ablation: MC write-drain policy (quadrant 3, 4 C2M cores)");
  Table t({"policy", "C2M degr", "P2M degr", "P2M-W lat (ns)", "N_waiting", "WPQ full",
           "switch cycles/us"});
  core::Plan plan;
  std::vector<core::ColocationRef> refs;
  for (const auto& v : variants) {
    core::C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    c2m.cores = 4;
    core::P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(v.host, workloads::p2m_region());
    refs.push_back(plan.colocation(v.host, c2m, p2m, opt));
  }
  const auto out = core::execute(plan);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto o = out[refs[i]];
    const auto& m = o.colo.metrics;
    t.row({variants[i].name, Table::num(o.c2m_degradation()) + "x",
           Table::num(o.p2m_degradation()) + "x", Table::num(m.p2m_write.latency_ns, 0),
           Table::num(m.n_waiting, 1), Table::pct(m.wpq_full_fraction * 100),
           Table::num(m.mc_switch_cycles / m.window_ns * 1000, 1)});
  }
  t.print();
  std::printf("\nTakeaway: read priority (the dwell) is what pushes the write backlog\n"
              "into the CHA tracker and lets C2M antagonize P2M; without it the MC\n"
              "spreads the pain evenly and the red regime's asymmetry disappears.\n");
  return 0;
}
