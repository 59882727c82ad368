// Figures 29 & 30 (Appendix E.2): the analytical formula applied to the
// DCTCP case study. Per the paper's methodology, the Network app's C2M
// throughput estimate divides the measured average LFB occupancy of the
// copy cores by the formula's C2M latency, and its P2M estimate divides
// the measured IIO occupancy by the formula's P2M-Write latency.
#include <string>
#include <vector>

#include "analytic/formula.hpp"
#include "common/table.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void run_case(const char* title, bool c2m_writes, const analytic::Constants& constants) {
  const core::HostConfig hc = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};

  banner(title);
  Table t({"C2M cores", "Memory app err", "Net C2M err", "Net P2M err"});
  for (auto n : cores) {
    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto wl = c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(i))
                           : workloads::c2m_read(workloads::c2m_core_region(i));
      host.add_core(wl);
    }
    net::DctcpConfig cfg;
    net::TcpReceiver rx(host, cfg);
    host.run(opt.warmup, opt.measure);
    const auto m = host.collect();
    const Tick now = host.sim().now();

    const analytic::EstimateOptions eo{.add_cha_admission_delay = true};
    // Memory app (the colocated C2M workload).
    const auto kind = c2m_writes ? analytic::DomainKind::kC2MReadWrite
                                 : analytic::DomainKind::kC2MRead;
    const auto em = analytic::estimate(kind, m, hc.mc.timing, constants, eo);
    const double mem_err =
        relative_error_pct(em.throughput_gbps, m.c2m_read.throughput_gbps);

    // Network app C2M: copy-core LFB occupancy / formula C2M latency.
    // The copy makes two LFB trips per line (socket read + RFO-less store),
    // so its effective latency is the formula's read latency.
    const auto in = analytic::inputs_from_metrics(m);
    const double l_read = analytic::read_domain_latency_ns(constants.c2m_read_ns, in,
                                                           hc.mc.timing) +
                          em.cha_admission_delay_ns;
    const double net_c2m_est =
        analytic::estimate_throughput_gbps(rx.copy_lfb_occupancy(now), l_read);
    const double net_c2m_meas = gb_per_s(
        [&] {
          std::uint64_t lines = 0;
          for (auto& c : rx.copy_cores()) lines += c->lines_copied();
          return lines * kCachelineBytes;
        }(),
        ns(m.window_ns));
    const double net_c2m_err = relative_error_pct(net_c2m_est, net_c2m_meas);

    // Network app P2M: IIO write occupancy / formula P2M-Write latency.
    const auto ep =
        analytic::estimate(analytic::DomainKind::kP2MWrite, m, hc.mc.timing, constants, eo);
    const double net_p2m_err =
        relative_error_pct(ep.throughput_gbps, m.p2m_write.throughput_gbps);

    t.row({std::to_string(n), Table::pct(mem_err), Table::pct(net_c2m_err),
           Table::pct(net_p2m_err)});
  }
  t.print();
}

}  // namespace

int main() {
  const core::HostConfig hc = core::cascade_lake();
  const auto opt = core::default_run_options();
  // Calibration: unloaded C2M-Read (one core) and P2M-Write (4KB QD1 probe).
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  core::P2MSpec probe;
  probe.storage = workloads::fio_4k_qd1(hc, workloads::p2m_region());
  core::Plan plan;
  plan.add(hc, c2m, std::nullopt, opt);
  plan.add(hc, std::nullopt, probe, opt);
  const auto cal = core::execute(plan);
  analytic::Constants constants;
  constants.c2m_read_ns = cal[0].metrics.lfb_latency_ns;
  constants.p2m_write_ns = cal[1].metrics.p2m_write.latency_ns;
  run_case("Fig 29 (top) / Fig 30: C2MRead + TCP Rx formula accuracy", false, constants);
  run_case("Fig 29 (bottom) / Fig 30: C2MReadWrite + TCP Rx formula accuracy", true,
           constants);
  std::printf("\nNote: as in the paper, points with significant packet loss are\n"
              "dominated by congestion-control dynamics that the formula does not\n"
              "model; errors there are expected to be larger (paper: ~26%%).\n");
  return 0;
}
