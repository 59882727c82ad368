// Worked studies built on the paper's results: sizing IIO credits with the
// domain law, placing Redis beside an NVMe ingest job, and a DCTCP
// receiver's two coupling loops under contention.
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "figures.hpp"

namespace hostnet::figures {

// Capacity planning with the domain law: T <= C x 64 / L turns a sizing
// question into arithmetic, which the simulator then checks. Can a
// next-generation NIC push 25 GB/s of inbound DMA through a
// Cascade-Lake-class host, and how many IIO write credits does it need at
// realistic contention-inflated latencies?
Printer capacity_planner(core::Plan& plan) {
  static constexpr double target_gbps = 25.0;
  core::HostConfig base = core::cascade_lake();
  // Give the host enough DRAM headroom for the experiment to make sense.
  base.dram.channels = 4;
  base.pcie_write_gb_per_s = target_gbps;
  struct Point {
    std::uint32_t credits, cores;
    std::size_t window;
  };
  std::vector<Point> points;
  for (std::uint32_t credits : {92u, 128u, 184u, 256u})
    for (std::uint32_t cores : {0u, 4u}) {
      core::HostConfig host = base;
      host.iio.write_credits = credits;
      const auto opt = core::default_run_options();
      points.push_back(
          {credits, cores, plan.add(host, c2m_beside(false, cores), fio_stream(host, true), opt)});
    }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Step 1: what the law says", os);
    Table law({"assumed P2M-Write latency (ns)", "credits needed for 25 GB/s"});
    for (double lat : {300.0, 400.0, 500.0, 700.0, 1000.0})
      law.row({Table::num(lat, 0), Table::num(core::credits_needed(target_gbps, lat), 0)});
    law.print(os);

    banner("Step 2: measure the latency the host actually delivers under load", os);
    Table t({"IIO wr credits", "C2M load (cores)", "P2M-W latency (ns)", "P2M GB/s",
             "target met"});
    for (const Point& p : points) {
      const core::RunOutcome& o = out[p.window];
      t.row({std::to_string(p.credits), std::to_string(p.cores),
             Table::num(o.metrics.p2m_write.latency_ns, 0), Table::num(o.p2m_score, 1),
             o.p2m_score >= 0.97 * target_gbps ? "yes" : "NO"});
    }
    t.print(os);
    os << "\nReading: today's ~92 credits were sized for ~14 GB/s at ~300 ns. At\n"
          "25 GB/s the same buffer only works while latency stays near unloaded;\n"
          "any blue-regime inflation pushes the needed credits past the buffer --\n"
          "the 'increasing imbalance of resources' trend the paper warns about.\n";
  };
}

// Noisy neighbors: how many Redis cores can share a Cascade Lake socket
// with an NVMe-backed ingest job before either side suffers? The
// colocation protocol and regime classifier on the paper's application
// models, ending in a placement recommendation.
Printer noisy_neighbor(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  core::C2MSpec redis;
  redis.workload = workloads::redis_read(workloads::c2m_core_region(0));
  const auto sweep = plan.core_sweep(host, redis, fio_stream(host, true), kCores,
                                     core::default_run_options());
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Redis + NVMe ingest on " + host.name, os);
    Table t({"redis cores", "kqps/core iso", "kqps/core colo", "redis degr", "ingest degr",
             "mem util", "regime"});
    std::uint32_t best = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto o = out[sweep[i]];
      const double per_core = 1.0 / kCores[i] / 1000.0;
      t.row({std::to_string(kCores[i]), Table::num(o.iso_c2m.c2m_score * per_core, 1),
             Table::num(o.colo.c2m_score * per_core, 1), Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x",
             Table::pct(o.colo.metrics.total_mem_gbps() / host.dram_peak_gb_per_s() * 100),
             core::to_string(o.regime())});
      if (o.c2m_degradation() < 1.25 && o.p2m_degradation() < 1.05) best = kCores[i];
    }
    t.print(os);
    os << "\nRecommendation: up to " << best
       << " Redis cores keep query throughput within 25%\n"
          "of isolated performance while the ingest job holds PCIe line rate.\n"
          "Note the paper's central point: degradation appears long before memory\n"
          "bandwidth saturates -- provisioning by bandwidth alone is not enough.\n";
  };
}

// A network application's receive path under host contention: the paper's
// DCTCP receiver (NIC DMA + kernel copy cores) beside an in-memory
// analytics job. It shows the TCP case study's two coupling loops: flow
// control under copy slowdown (blue) vs congestion response under DMA
// backpressure (red). Its windows are fixed (400 us warmup, 1200 us
// measure) whatever HOSTNET_MEASURE_US/HOSTNET_WARMUP_US say.
Printer netapp_rx(core::Plan& plan) {
  struct Case {
    const char* label;
    bool rw;
    std::uint32_t cores;
  };
  static constexpr Case cases[] = {
      {"isolated", false, 0},
      {"+2 analytics cores (reads)", false, 2},
      {"+4 analytics cores (reads)", false, 4},
      {"+2 analytics cores (r/w)", true, 2},
      {"+4 analytics cores (r/w)", true, 4},
  };
  std::vector<std::size_t> w;
  for (const Case& c : cases)
    w.push_back(plan.add(core::cascade_lake(), c2m_beside(c.rw, c.cores), dctcp_rx(),
                         core::RunOptions{us(400), us(1200), 1}));
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("DCTCP receiver (100G, 4 copy cores) under host-network contention", os);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const net::TransportOutcome& tr = out[w[i]].transport;
      char line[256];
      std::snprintf(line, sizeof line,
                    "%-28s goodput %5.2f GB/s  loss %6.3f%%  marks %5.1f%%  cwnd %5.1f  "
                    "copy-LFB %5.1f ns  P2M-W %6.1f ns\n",
                    cases[i].label, tr.goodput_gbps, tr.loss_rate * 100, tr.mark_fraction * 100,
                    tr.avg_cwnd, tr.copy_lfb_latency_ns, out[w[i]].metrics.p2m_write.latency_ns);
      os << line;
    }
    os << "\nWith read-only neighbors the receiver slows via the receive window\n"
          "(no loss): the copy is the bottleneck. With read/write neighbors the\n"
          "NIC's DMA path itself backs up (P2M-Write latency above) and DCTCP\n"
          "responds to marks/drops -- throughput collapses much further.\n";
  };
}

}  // namespace hostnet::figures
