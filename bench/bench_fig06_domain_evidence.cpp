// Figure 6 + section 4.2: evidence for the domains and their
// characteristics.
//
// (a) C2M-Read sweep: LFB latency vs CHA->DRAM read latency. The LFB
//     latency must always exceed (and inflate in lockstep with) the
//     CHA->DRAM latency: the C2M-Read domain spans all hops to DRAM.
// (b) C2M-ReadWrite sweep: LFB latency vs CHA->MC write latency. The
//     CHA->MC write latency can exceed the LFB latency, proving the
//     C2M-Write domain does NOT include the MC.
// (c) Low-load P2M (4 KB QD1 storage reads) colocated with C2M-ReadWrite:
//     IIO latency vs CHA->MC write latency -- the IIO latency is inclusive
//     of it (the P2M-Write domain DOES include the MC).
// (d) Credit counts: max LFB occupancy (10-12), IIO write-buffer occupancy
//     saturation (~92), in-flight P2M reads at the CHA (lower bound on the
//     P2M-Read credits).
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const core::HostConfig host = core::cascade_lake();
  const auto opt = core::default_run_options();
  const std::vector<std::uint32_t> cores{1, 2, 3, 4, 5, 6};

  core::C2MSpec rd;
  rd.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  core::C2MSpec rw;
  rw.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  auto with_cores = [](core::C2MSpec spec, std::uint32_t n) {
    spec.cores = n;
    return spec;
  };
  core::P2MSpec qd1;
  qd1.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());
  core::P2MSpec p2m_write;
  p2m_write.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  core::P2MSpec p2m_read;
  p2m_read.storage = workloads::fio_p2m_read(host, workloads::p2m_region());

  // Every window of the figure in one plan. (d) reuses the 1-core C2M-Read
  // window of (a) and the 0-core QD1 window of (c).
  core::Plan plan;
  std::vector<std::size_t> read_iso, rw_iso, qd1_colo;
  for (auto n : cores) read_iso.push_back(plan.add(host, with_cores(rd, n), std::nullopt, opt));
  for (auto n : cores) rw_iso.push_back(plan.add(host, with_cores(rw, n), std::nullopt, opt));
  for (std::uint32_t n = 0; n <= 6; ++n)
    qd1_colo.push_back(plan.add(
        host, n > 0 ? std::optional<core::C2MSpec>(with_cores(rw, n)) : std::nullopt, qd1, opt));
  const std::size_t lfb_1core = read_iso.front();
  const std::size_t qd1_iso = qd1_colo.front();
  const std::size_t iio_sat = plan.add(host, with_cores(rw, 6), p2m_write, opt);
  const std::size_t p2m_rd_sat = plan.add(host, with_cores(rd, 6), p2m_read, opt);
  const auto out = core::execute(plan);

  // (a) C2M-Read: LFB vs CHA->DRAM read latency.
  banner("Fig 6(a): C2M-Read -- LFB latency vs CHA->DRAM read latency");
  {
    Table t({"C2M cores", "LFB lat (ns)", "CHA->DRAM read lat (ns)", "LFB max occ"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto& r = out[read_iso[i]];
      const auto& d = r.metrics.domain(core::Domain::kC2MRead);
      t.row({std::to_string(cores[i]), Table::num(d.latency_ns, 1),
             Table::num(r.metrics.cha_dram_read_latency_c2m_ns, 1),
             std::to_string(static_cast<std::int64_t>(d.max_credits_used))});
    }
    t.print();
  }

  // (b) C2M-ReadWrite: LFB vs CHA->MC write latency.
  banner("Fig 6(b): C2M-ReadWrite -- LFB latency vs CHA->MC write latency");
  {
    Table t({"C2M cores", "LFB lat (ns)", "CHA->MC write lat (ns)", "C2M-Write lat (ns)"});
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const auto& r = out[rw_iso[i]];
      t.row({std::to_string(cores[i]),
             Table::num(r.metrics.domain(core::Domain::kC2MRead).latency_ns, 1),
             Table::num(r.metrics.cha_mc_write_latency_ns, 1),
             Table::num(r.metrics.domain(core::Domain::kC2MWrite).latency_ns, 1)});
    }
    t.print();
  }

  // (c) P2M-Write domain: low-load P2M colocated with C2M-ReadWrite.
  banner("Fig 6(c,d): 4KB-QD1 P2M-Write -- IIO latency vs CHA->MC write latency");
  {
    Table t({"C2M cores", "IIO lat (ns)", "CHA->MC write lat (ns)", "IIO wr occ (avg)"});
    for (std::size_t n = 0; n < qd1_colo.size(); ++n) {
      const auto& r = out[qd1_colo[n]];
      const auto& d = r.metrics.domain(core::Domain::kP2MWrite);
      t.row({std::to_string(n), Table::num(d.latency_ns, 1),
             Table::num(r.metrics.cha_mc_write_latency_ns, 1),
             Table::num(d.credits_in_use, 1)});
    }
    t.print();
  }

  // (d) Credit counts under saturation.
  banner("Fig 6(d)/§4.2: domain credit counts");
  {
    Table t({"measurement", "value", "paper"});
    const auto& d = out[lfb_1core].metrics.domain(core::Domain::kC2MRead);
    t.row({"max LFB occupancy (C2M-Read, 1 core)",
           std::to_string(static_cast<std::int64_t>(d.max_credits_used)), "10-12"});
    t.row({"unloaded C2M-Read latency (ns)", Table::num(d.latency_ns, 1), "~70"});
    // P2M-Write saturating PCIe + max C2M load: IIO write buffer fills.
    t.row({"IIO write buffer occupancy saturation",
           Table::num(out[iio_sat].metrics.domain(core::Domain::kP2MWrite).max_credits_used, 0),
           "~92"});
    t.row({"in-flight P2M reads at CHA (max, lower bound on credits)",
           std::to_string(out[p2m_rd_sat].metrics.p2m_reads_in_flight_at_cha_max), ">=164"});
    t.row({"unloaded P2M-Write domain latency (ns)",
           Table::num(out[qd1_iso].metrics.domain(core::Domain::kP2MWrite).latency_ns, 1),
           "~300"});
    t.print();
  }
  return 0;
}
