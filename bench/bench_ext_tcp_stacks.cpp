// Extension (ROADMAP item 3): the stack x quadrant matrix. The paper's TCP
// story (Figs 19/25/26/29/30) is DCTCP-only; with congestion control now
// pluggable (net/tcp_stack.hpp) the open question becomes measurable: does
// a pacing-based (BBR-like) or delay-based (Davis-like) sender read the
// host network's extra latency as congestion and self-throttle in the blue
// regime, or sail into the red one?
//
// For each stack x {C2M-Read, C2M-ReadWrite} quadrant the C2M core count is
// swept and the blue/red regime onset (first core count whose colocation
// classifies as each) reported. A per-stack receiver detail table (loss,
// mark fraction, average cwnd) closes the loop with Fig 25/26's root-cause
// view.
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/domains.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

struct Onset {
  std::uint32_t blue = 0;  ///< first core count in the blue regime (0 = never)
  std::uint32_t red = 0;   ///< first core count in the red regime (0 = never)
};

std::string onset_str(std::uint32_t n) { return n ? std::to_string(n) : "-"; }

}  // namespace

int main() {
  const auto opt = core::default_run_options();
  const core::HostConfig hc = core::cascade_lake();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};
  const std::vector<core::TcpStackKind> stacks{
      core::TcpStackKind::kDctcp, core::TcpStackKind::kBbr, core::TcpStackKind::kDavis};

  struct Quadrant {
    const char* name;
    bool writes;
  };
  const std::vector<Quadrant> quadrants{{"C2M-Read + TCP Rx", false},
                                        {"C2M-ReadWrite + TCP Rx", true}};

  std::vector<std::vector<Onset>> onsets(quadrants.size(),
                                         std::vector<Onset>(stacks.size()));

  for (std::size_t q = 0; q < quadrants.size(); ++q) {
    banner(std::string("TCP stack sweep: ") + quadrants[q].name);
    for (std::size_t s = 0; s < stacks.size(); ++s) {
      core::C2MSpec c2m;
      c2m.workload = quadrants[q].writes
                         ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                         : workloads::c2m_read(workloads::c2m_core_region(0));
      core::P2MSpec p2m;
      p2m.tcp = net::tcp_spec(stacks[s]);
      p2m.name = p2m.tcp->name;

      Table t({"C2M cores", "C2M degr", "Net degr", "Net GB/s", "regime"});
      core::Plan plan;
      const auto sweep = plan.core_sweep(hc, c2m, p2m, cores, opt);
      const auto out = core::execute(plan);
      Onset& o = onsets[q][s];
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto pt = out[sweep[i]];
        const core::Regime r = pt.regime();
        if (r == core::Regime::kBlue && o.blue == 0) o.blue = cores[i];
        if (r == core::Regime::kRed && o.red == 0) o.red = cores[i];
        t.row({std::to_string(cores[i]), Table::num(pt.c2m_degradation()) + "x",
               Table::num(pt.p2m_degradation()) + "x", Table::num(pt.colo.p2m_score, 2),
               core::to_string(r)});
      }
      banner(std::string("stack: ") + core::to_string(stacks[s]));
      t.print();
    }
  }

  banner("Regime onset per stack x quadrant (first C2M core count; - = never)");
  Table onset_table({"stack", "quadrant", "blue onset", "red onset"});
  for (std::size_t q = 0; q < quadrants.size(); ++q)
    for (std::size_t s = 0; s < stacks.size(); ++s)
      onset_table.row({core::to_string(stacks[s]), quadrants[q].name,
                       onset_str(onsets[q][s].blue), onset_str(onsets[q][s].red)});
  onset_table.print();

  // Receiver root-cause detail (Fig 25/26 view, per stack): 4 read-write
  // cores alongside the receiver.
  banner("Receiver detail: 4x C2M-ReadWrite colocation");
  Table d({"stack", "goodput GB/s", "loss", "mark frac", "avg cwnd"});
  for (const core::TcpStackKind kind : stacks) {
    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < 4; ++i)
      host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
    net::TcpConfig cfg;
    cfg.stack = kind;
    net::TcpReceiver rx(host, cfg);
    host.run(opt.warmup, opt.measure);
    d.row({core::to_string(kind), Table::num(rx.goodput_gbps(host.sim().now()), 2),
           Table::pct(rx.loss_rate() * 100, 3), Table::pct(rx.mark_fraction() * 100, 1),
           Table::num(rx.avg_cwnd(), 1)});
  }
  d.print();
  return 0;
}
