// Capture a chrome-tracing view of the host network under contention.
//
// Runs 200 us of quadrant 1 (2 C2M-Read cores + P2M writes) with the
// tracer enabled and writes `hostnet.trace.json`. Open it in
// chrome://tracing or https://ui.perfetto.dev to see:
//   * per-core C2M-Read spans stretching whenever a write drain runs,
//   * "write-drain" markers and the WPQ occupancy sawtooth per channel,
//   * P2M-Write spans and the IIO credit counter staying comfortably
//     below the 92-credit limit (the blue regime in one picture).
#include <cstdio>

#include "core/host_system.hpp"
#include "sim/trace.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig hc = core::cascade_lake();
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 2; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));

  sim::Tracer tracer("hostnet.trace.json");
  host.run(us(100), us(10));         // settle without tracing
  host.sim().set_tracer(&tracer);    // trace a short, readable window
  host.run_more(us(200));
  host.sim().set_tracer(nullptr);
  tracer.flush();

  std::printf("wrote hostnet.trace.json (%zu events; open in chrome://tracing)\n",
              tracer.size());
  return 0;
}
