// Figure 19 (Appendix C.2): DCTCP receiver colocated with memory apps.
//
// (a,b) C2M-Read (Memory app) + TCP Rx: both degrade; the memory app
//       degrades more, and the gap narrows with load.
// (c,d) C2M-ReadWrite + TCP Rx: at low load the memory app degrades more;
//       at higher load the network app collapses (drops + CC response).
// The memory-bandwidth breakdown per case is also printed.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void run_case(const char* title, bool c2m_writes) {
  const core::HostConfig hc = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};

  // Isolated baselines.
  double iso_net = 0;
  {
    core::HostSystem host(hc);
    net::DctcpConfig cfg;
    net::TcpReceiver rx(host, cfg);
    host.run(opt.warmup, opt.measure);
    iso_net = rx.goodput_gbps(host.sim().now());
  }

  // Isolated memory app at each core count (window i: cores[i]).
  const auto wl = c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                             : workloads::c2m_read(workloads::c2m_core_region(0));
  core::Plan plan;
  for (auto n : cores) {
    core::C2MSpec c2m;
    c2m.workload = wl;
    c2m.cores = n;
    plan.add(hc, c2m, std::nullopt, opt);
  }
  const auto iso = core::execute(plan);

  banner(title);
  Table t({"C2M cores", "Memory app degr", "Network app degr", "loss rate",
           "C2M mem GB/s", "P2M mem GB/s"});
  for (std::size_t ci = 0; ci < cores.size(); ++ci) {
    const std::uint32_t n = cores[ci];
    const double iso_mem = iso[ci].c2m_score;

    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto w = wl;
      w.region.base += static_cast<std::uint64_t>(i) << 30;
      host.add_core(w);
    }
    net::DctcpConfig cfg;
    net::TcpReceiver rx(host, cfg);
    host.run(opt.warmup, opt.measure);
    const auto m = host.collect();
    const Tick now = host.sim().now();
    const double mem_degr = m.c2m_app_gbps > 0 ? iso_mem / m.c2m_app_gbps : 0;
    const double net_degr =
        rx.goodput_gbps(now) > 0 ? iso_net / rx.goodput_gbps(now) : 0;
    t.row({std::to_string(n), Table::num(mem_degr) + "x", Table::num(net_degr) + "x",
           Table::pct(rx.loss_rate() * 100, 3), Table::num(m.c2m_mem_gbps(), 1),
           Table::num(m.p2m_mem_gbps(), 1)});
  }
  t.print();
}

}  // namespace

int main() {
  run_case("Fig 19(a,b): C2MRead + TCP Rx (DCTCP, 4 copy cores)", false);
  run_case("Fig 19(c,d): C2MReadWrite + TCP Rx (DCTCP, 4 copy cores)", true);
  return 0;
}
