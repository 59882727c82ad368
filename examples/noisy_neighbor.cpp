// Noisy-neighbor study: how many Redis cores can share a Cascade Lake
// socket with an NVMe-backed ingest job before either side suffers?
//
// Demonstrates the colocation harness + regime classifier on the paper's
// application models, and prints a placement recommendation.
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();

  core::C2MSpec redis;
  redis.name = "redis";
  redis.workload = workloads::redis_read(workloads::c2m_core_region(0));

  core::P2MSpec ingest;
  ingest.name = "nvme-ingest";
  ingest.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  banner("Redis + NVMe ingest on " + host.name);
  Table t({"redis cores", "kqps/core iso", "kqps/core colo", "redis degr", "ingest degr",
           "mem util", "regime"});
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};
  std::uint32_t best = 0;
  core::Plan plan;
  const auto sweep = plan.core_sweep(host, redis, ingest, cores, opt);
  const auto out = core::execute(plan);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto o = out[sweep[i]];
    const double per_core = 1.0 / cores[i] / 1000.0;
    t.row({std::to_string(cores[i]), Table::num(o.iso_c2m.c2m_score * per_core, 1),
           Table::num(o.colo.c2m_score * per_core, 1),
           Table::num(o.c2m_degradation()) + "x", Table::num(o.p2m_degradation()) + "x",
           Table::pct(o.colo.metrics.total_mem_gbps() / host.dram_peak_gb_per_s() * 100),
           core::to_string(o.regime())});
    if (o.c2m_degradation() < 1.25 && o.p2m_degradation() < 1.05) best = cores[i];
  }
  t.print();

  std::printf(
      "\nRecommendation: up to %u Redis cores keep query throughput within 25%%\n"
      "of isolated performance while the ingest job holds PCIe line rate.\n"
      "Note the paper's central point: degradation appears long before memory\n"
      "bandwidth saturates -- provisioning by bandwidth alone is not enough.\n",
      best);
  return 0;
}
