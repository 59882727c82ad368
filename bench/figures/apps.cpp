// Real applications (Redis, GAPBS) colocated with FIO: the new phenomenon
// on Ice Lake (Fig 1) and DDIO's effect on Cascade Lake (Figs 2, 15-17).
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "figures.hpp"

namespace hostnet::figures {

namespace {

/// An application's C2M placement, its cores sharding the address space
/// (Redis shards, one per core).
core::C2MSpec sharded(const cpu::CoreWorkload& wl) {
  core::C2MSpec s;
  s.workload = wl;
  return s;
}

/// An application's C2M placement, every core on one region (a GAPBS graph).
core::C2MSpec shared(const cpu::CoreWorkload& wl) {
  core::C2MSpec s = sharded(wl);
  s.per_core_region = false;
  return s;
}

/// One app x P2M combination on Cascade Lake: per core count, the
/// colocation with DDIO off [0] and on [1].
struct DdioSweep {
  const char* title;
  std::vector<std::uint32_t> cores;
  std::vector<std::array<core::ColocationRef, 2>> points;
};

DdioSweep plan_ddio(core::Plan& plan, const char* title, core::C2MSpec c2m, bool p2m_writes,
                    const std::vector<std::uint32_t>& cores) {
  auto opt = core::default_run_options();
  // DDIO's victim stream needs the DDIO ways warmed (4 MB at 14 GB/s).
  opt.warmup = std::max(opt.warmup, us(600));
  DdioSweep s{title, cores, {}};
  for (auto n : cores) {
    c2m.cores = n;
    std::array<core::ColocationRef, 2> refs;
    for (int ddio = 0; ddio < 2; ++ddio) {
      core::HostConfig host = core::cascade_lake();
      host.cha.ddio = ddio == 1;
      refs[ddio] = plan.colocation(host, c2m, fio_stream(host, p2m_writes), opt);
    }
    s.points.push_back(refs);
  }
  return s;
}

/// C2M and P2M degradation with DDIO on vs off; `p2m_mem` adds the
/// colocated P2M memory bandwidth (on / off).
void print_ddio(const DdioSweep& s, const core::Outcomes& out, bool p2m_mem, std::ostream& os) {
  banner(s.title, os);
  std::vector<std::string> hdr{"C2M cores", "C2M degr (DDIO on)", "C2M degr (DDIO off)",
                               "P2M degr (on)", "P2M degr (off)"};
  if (p2m_mem) hdr.push_back("P2M mem GB/s (on/off)");
  Table t(hdr);
  for (std::size_t i = 0; i < s.cores.size(); ++i) {
    const auto off = out[s.points[i][0]];
    const auto on = out[s.points[i][1]];
    std::vector<std::string> row{std::to_string(s.cores[i]),
                                 Table::num(on.c2m_degradation()) + "x",
                                 Table::num(off.c2m_degradation()) + "x",
                                 Table::num(on.p2m_degradation()) + "x",
                                 Table::num(off.p2m_degradation()) + "x"};
    if (p2m_mem)
      row.push_back(Table::num(on.colo.metrics.p2m_mem_gbps(), 1) + " / " +
                    Table::num(off.colo.metrics.p2m_mem_gbps(), 1));
    t.row(row);
  }
  t.print(os);
}

}  // namespace

// Figure 1: the new phenomenon with real applications on Ice Lake --
// Redis (YCSB-C) and GAPBS (PageRank) colocated with FIO sequential reads.
// C2M app performance degrades while the P2M app is unaffected, even
// though memory bandwidth is far from saturated.
//
// (a,b) performance degradation vs number of C2M cores
// (c,d) colocated memory bandwidth utilization, split C2M/P2M
Printer fig01_apps_icelake(core::Plan& plan) {
  core::HostConfig host = core::ice_lake();
  // The Ice Lake testbed runs with DDIO permanently enabled (section 2.1).
  host.cha.ddio = true;
  const std::vector<std::uint32_t> cores{4, 8, 12, 16, 20, 24, 28};
  const auto opt = core::default_run_options();
  const core::P2MSpec fio = fio_stream(host, true);
  struct App {
    const char* title;
    std::vector<core::ColocationRef> sweep;
  };
  const App apps[] = {
      {"Fig 1(a,c): Redis + FIO on Ice Lake (queries/s degradation)",
       plan.core_sweep(host, sharded(workloads::redis_read(workloads::c2m_core_region(0))), fio,
                       cores, opt)},
      {"Fig 1(b,d): GAPBS-PR + FIO on Ice Lake (slowdown = degradation)",
       plan.core_sweep(host, shared(workloads::gapbs_pr(workloads::c2m_shared_region())), fio,
                       cores, opt)},
  };
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (const App& app : apps) {
      banner(app.title, os);
      Table t({"C2M cores", "C2M degr", "P2M degr", "C2M mem GB/s", "P2M mem GB/s",
               "mem util", "P2M GB/s"});
      for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto o = out[app.sweep[i]];
        const auto& m = o.colo.metrics;
        t.row({std::to_string(cores[i]), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x", Table::num(m.c2m_mem_gbps(), 1),
               Table::num(m.p2m_mem_gbps(), 1),
               Table::pct(m.total_mem_gbps() / host.dram_peak_gb_per_s() * 100),
               Table::num(o.colo.p2m_score, 1)});
      }
      t.print(os);
    }
  };
}

// Figure 2: DDIO can worsen C2M performance degradation when the P2M
// working set does not fit in the cache (Cascade Lake; Redis and GAPBS
// colocated with FIO sequential reads, DDIO on vs off).
//
// Mechanism as modeled (DESIGN.md): with DDIO on, inbound DMA writes
// allocate in the LLC's DDIO ways and the *evicted victims'* write-backs
// reach memory in hashed-set order, destroying the DMA stream's row
// locality and inflating MC queueing -- which hurts the colocated C2M app.
// P2M bandwidth itself is unchanged (same write volume), matching the
// paper's Figure 2(c,d).
Printer fig02_ddio(core::Plan& plan) {
  const DdioSweep sweeps[] = {
      plan_ddio(plan, "Fig 2(a,c): Redis + P2M-Write, DDIO on vs off (Cascade Lake)",
                sharded(workloads::redis_read(workloads::c2m_core_region(0))), true, kCores),
      plan_ddio(plan, "Fig 2(b,d): GAPBS-PR + P2M-Write, DDIO on vs off (Cascade Lake)",
                shared(workloads::gapbs_pr(workloads::c2m_shared_region())), true, kCores),
  };
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (const DdioSweep& s : sweeps) print_ddio(s, out, /*p2m_mem=*/true, os);
  };
}

// Figures 15-17 (Appendix B): application results with all C2M/P2M
// read/write combinations, DDIO on vs off (Cascade Lake).
//
//   Fig 15: Redis-Write and GAPBS-BC (C2M-ReadWrite) + P2M-Write
//   Fig 16: Redis-Read and GAPBS-PR (C2M-Read)      + P2M-Read
//   Fig 17: Redis-Write and GAPBS-BC (C2M-ReadWrite) + P2M-Read
//
// Expected trends: C2M apps degrade, P2M is unaffected; DDIO worsens C2M
// degradation only when colocated with P2M-Write (LLC allocations /
// evictions); with P2M-Read, DDIO on/off is identical.
Printer fig15_17_apps_rw(core::Plan& plan) {
  const std::vector<std::uint32_t> cores{1, 2, 4, 6};
  const auto redis_write = sharded(workloads::redis_write(workloads::c2m_core_region(0)));
  const auto redis_read = sharded(workloads::redis_read(workloads::c2m_core_region(0)));
  const auto gapbs_bc = shared(workloads::gapbs_bc(workloads::c2m_shared_region()));
  const auto gapbs_pr = shared(workloads::gapbs_pr(workloads::c2m_shared_region()));
  const DdioSweep sweeps[] = {
      plan_ddio(plan, "Fig 15: Redis-Write (C2M-RW) + P2M-Write", redis_write, true, cores),
      plan_ddio(plan, "Fig 15: GAPBS-BC (C2M-RW) + P2M-Write", gapbs_bc, true, cores),
      plan_ddio(plan, "Fig 16: Redis-Read (C2M-Read) + P2M-Read", redis_read, false, cores),
      plan_ddio(plan, "Fig 16: GAPBS-PR (C2M-Read) + P2M-Read", gapbs_pr, false, cores),
      plan_ddio(plan, "Fig 17: Redis-Write (C2M-RW) + P2M-Read", redis_write, false, cores),
      plan_ddio(plan, "Fig 17: GAPBS-BC (C2M-RW) + P2M-Read", gapbs_bc, false, cores),
  };
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (const DdioSweep& s : sweeps) print_ddio(s, out, /*p2m_mem=*/false, os);
  };
}

}  // namespace hostnet::figures
