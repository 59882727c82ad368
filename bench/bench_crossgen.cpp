// Cross-generation check (paper section 2.1): the contention regimes are
// "reproducible across multiple generations of servers with different
// processors, different memory bandwidth to core count ratios, and
// different configurations". Runs quadrants 1 and 3 on the Ice Lake preset
// (4 channels, 102.4 GB/s, ~28 GB/s PCIe) and on a hypothetical
// next-generation host with an even lower memory-to-PCIe ratio.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

void run_host(const core::HostConfig& host, const std::vector<std::uint32_t>& cores) {
  const auto opt = core::default_run_options();
  for (bool c2m_writes : {false, true}) {
    core::C2MSpec c2m;
    c2m.workload = c2m_writes ? workloads::c2m_read_write(workloads::c2m_core_region(0))
                              : workloads::c2m_read(workloads::c2m_core_region(0));
    core::P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

    banner(host.name + (c2m_writes ? ": quadrant 3" : ": quadrant 1"));
    Table t({"C2M cores", "C2M degr", "P2M degr", "mem util", "regime"});
    core::Plan plan;
    const auto sweep = plan.core_sweep(host, c2m, p2m, cores, opt);
    const auto out = core::execute(plan);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto o = out[sweep[i]];
      t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x",
             Table::pct(o.colo.metrics.total_mem_gbps() / host.dram_peak_gb_per_s() * 100),
             core::to_string(o.regime())});
    }
    t.print();
  }
}

}  // namespace

int main() {
  run_host(core::ice_lake(), {4, 8, 16, 24, 28});

  // The trend the paper warns about: peripheral bandwidth growing faster
  // than memory bandwidth. Same DRAM as Cascade Lake, doubled PCIe.
  core::HostConfig next = core::cascade_lake();
  next.name = "imbalanced-next-gen (2ch DRAM, 28 GB/s PCIe)";
  next.pcie_write_gb_per_s = 28.0;
  next.iio.write_credits = 184;
  run_host(next, {1, 2, 3, 4});
  std::printf("\nWith PCIe ~60%% of DRAM bandwidth, the red regime arrives at a\n"
              "single C2M core: the resource-imbalance trend of section 1.\n");
  return 0;
}
