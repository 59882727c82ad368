// Quickstart: build a Cascade Lake host, colocate a sequential C2M reader
// with an NVMe-backed P2M writer (FIO-style), and print the domain view --
// credits, latency, throughput, and the contention regime.
#include <cstdio>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();

  core::C2MSpec c2m;
  c2m.name = "C2M-Read";
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 4;

  core::P2MSpec p2m;
  p2m.name = "P2M-Write";
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  const auto opt = core::default_run_options();
  core::Plan plan;
  const auto ref = plan.colocation(host, c2m, p2m, opt);
  const auto out = core::execute(plan)[ref];

  banner("Colocation on " + host.name + " (4 C2M cores + NVMe P2M writes)");
  Table t({"side", "isolated", "colocated", "degradation"});
  t.row({"C2M (GB/s)", Table::num(out.iso_c2m.c2m_score), Table::num(out.colo.c2m_score),
         Table::num(out.c2m_degradation()) + "x"});
  t.row({"P2M (GB/s)", Table::num(out.iso_p2m.p2m_score), Table::num(out.colo.p2m_score),
         Table::num(out.p2m_degradation()) + "x"});
  t.print();

  const auto& m = out.colo.metrics;
  banner("Domain view (colocated)");
  Table d({"domain", "credits in use", "latency (ns)", "throughput (GB/s)", "law C*64/L"});
  const auto row = [&](const char* name, const core::DomainObservation& o, double credits) {
    d.row({name, Table::num(o.credits_in_use, 1), Table::num(o.latency_ns, 1),
           Table::num(o.throughput_gbps),
           Table::num(core::max_throughput_gbps(credits, o.latency_ns))});
  };
  row("C2M-Read (per-core LFB)", m.c2m_read, host.core.lfb_entries);
  row("P2M-Write (IIO wr buf)", m.p2m_write, host.iio.write_credits);
  d.print();

  std::printf("\nmemory bandwidth: C2M %.1f + P2M %.1f = %.1f GB/s (peak %.1f)\n",
              m.c2m_mem_gbps(), m.p2m_mem_gbps(), m.total_mem_gbps(),
              host.dram_peak_gb_per_s());
  std::printf("regime: %s\n", core::to_string(out.regime()).c_str());
  return 0;
}
