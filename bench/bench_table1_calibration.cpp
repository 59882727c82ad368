// Table 1: the two simulated testbeds and their calibration.
//
// Prints the hardware configuration (as modeled) and verifies the paper's
// stated calibration property: "a simple sequential read microbenchmark
// saturates more than 90% of theoretical maximum memory bandwidth", plus
// the per-domain credit/latency characteristics of section 4.2.
#include <string>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void calibrate(const core::HostConfig& host, std::uint32_t seq_cores) {
  const auto opt = core::default_run_options();
  core::C2MSpec seq;
  seq.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  seq.cores = seq_cores;
  core::C2MSpec one = seq;
  one.cores = 1;
  core::P2MSpec qd1;
  qd1.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());
  core::P2MSpec fio;
  fio.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  core::Plan plan;
  plan.add(host, seq, std::nullopt, opt);
  plan.add(host, one, std::nullopt, opt);
  plan.add(host, std::nullopt, qd1, opt);
  plan.add(host, std::nullopt, fio, opt);
  const auto out = core::execute(plan);

  banner("Calibration: " + host.name);
  Table t({"property", "value", "paper"});
  t.row({"theoretical DRAM BW (GB/s)", Table::num(host.dram_peak_gb_per_s(), 1),
         host.dram.channels == 2 ? "46.9" : "102.4"});
  t.row({"seq-read saturation (" + std::to_string(seq_cores) + " cores)",
         Table::pct(out[0].metrics.total_mem_gbps() / host.dram_peak_gb_per_s() * 100), ">90%"});
  t.row({"unloaded C2M-Read latency (ns)", Table::num(out[1].metrics.lfb_latency_ns, 1), "~70"});
  t.row({"LFB credits (max occupancy)", std::to_string(out[1].metrics.lfb_max_occupancy),
         "10-12"});
  t.row({"unloaded P2M-Write latency (ns)",
         Table::num(out[2].metrics.p2m_write.latency_ns, 1), "~300"});
  t.row({"P2M-Write throughput (GB/s)", Table::num(out[3].metrics.p2m_dev_gbps, 1),
         host.dram.channels == 2 ? "~14 (PCIe)" : "~28 (PCIe)"});
  t.row({"IIO write credits", std::to_string(host.iio.write_credits),
         host.dram.channels == 2 ? "~92" : "(2 stacks)"});
  t.print();
}

}  // namespace

int main() {
  for (const auto& host : {core::cascade_lake(), core::ice_lake()}) {
    banner("Table 1: " + host.name + " (as modeled)");
    Table t({"component", "value"});
    t.row({"cores", std::to_string(host.total_cores) + " @ " +
                        Table::num(host.core_ghz, 1) + " GHz"});
    t.row({"DRAM", std::to_string(host.dram.channels) + " channels x " +
                       std::to_string(host.dram.banks_per_channel) + " banks, " +
                       std::to_string(host.dram.row_bytes / 1024) + " KB rows"});
    t.row({"tTrans / tCAS / tRCD / tRP (ns)",
           Table::num(to_ns(host.mc.timing.t_trans)) + " / " +
               Table::num(to_ns(host.mc.timing.t_cas)) + " / " +
               Table::num(to_ns(host.mc.timing.t_rcd)) + " / " +
               Table::num(to_ns(host.mc.timing.t_rp))});
    t.row({"RPQ / WPQ per channel", std::to_string(host.mc.rpq_capacity) + " / " +
                                        std::to_string(host.mc.wpq_capacity)});
    t.row({"PCIe eff. write / read (GB/s)", Table::num(host.pcie_write_gb_per_s, 1) +
                                                " / " +
                                                Table::num(host.pcie_read_gb_per_s, 1)});
    t.row({"IIO write / read credits", std::to_string(host.iio.write_credits) + " / " +
                                           std::to_string(host.iio.read_credits)});
    t.print();
    calibrate(host, host.dram.channels == 2 ? 6 : 16);
  }
  return 0;
}
