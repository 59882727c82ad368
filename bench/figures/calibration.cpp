// Table 1's testbeds and their calibration, the sweeps that characterize
// the model beyond the paper's quadrants (the MLC-style loaded-latency
// curve, the cross-generation check of section 2.1, the Appendix-B P2M
// read/write mix) and the ablations of its three mechanisms behind the
// regimes: the DRAM address mapping (blue), the domain credit sizing (the
// T <= C x 64 / L law) and the memory controller's write-drain policy (red).
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "figures.hpp"

namespace hostnet::figures {

namespace {

/// A named Cascade Lake variant.
struct Variant {
  std::string name;
  core::HostConfig host;
};

}  // namespace

// Table 1: the two simulated testbeds as modeled, and the paper's stated
// calibration property: "a simple sequential read microbenchmark saturates
// more than 90% of theoretical maximum memory bandwidth", plus the
// per-domain credit/latency characteristics of section 4.2.
Printer table1_calibration(core::Plan& plan) {
  struct Testbed {
    core::HostConfig host;
    std::uint32_t seq_cores;
    std::size_t seq;  ///< seq-read window; then 1-core read, 4K QD1 and FIO write
  };
  std::vector<Testbed> beds;
  for (const core::HostConfig& host : {core::cascade_lake(), core::ice_lake()}) {
    const auto opt = core::default_run_options();
    const std::uint32_t seq_cores = host.dram.channels == 2 ? 6 : 16;
    core::P2MSpec qd1;
    qd1.storage = workloads::fio_4k_qd1(host, workloads::p2m_region());
    const std::size_t seq = plan.add(host, c2m_stream(false, seq_cores), std::nullopt, opt);
    beds.push_back({host, seq_cores, seq});
    plan.add(host, c2m_stream(false), std::nullopt, opt);
    plan.add(host, std::nullopt, qd1, opt);
    plan.add(host, std::nullopt, fio_stream(host, true), opt);
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (const Testbed& b : beds) {
      const core::HostConfig& host = b.host;
      const bool clx = host.dram.channels == 2;
      banner("Table 1: " + host.name + " (as modeled)", os);
      Table t({"component", "value"});
      t.row({"cores", std::to_string(host.total_cores) + " @ " + Table::num(host.core_ghz, 1) +
                          " GHz"});
      t.row({"DRAM", std::to_string(host.dram.channels) + " channels x " +
                         std::to_string(host.dram.banks_per_channel) + " banks, " +
                         std::to_string(host.dram.row_bytes / 1024) + " KB rows"});
      t.row({"tTrans / tCAS / tRCD / tRP (ns)",
             Table::num(to_ns(host.mc.timing.t_trans)) + " / " +
                 Table::num(to_ns(host.mc.timing.t_cas)) + " / " +
                 Table::num(to_ns(host.mc.timing.t_rcd)) + " / " +
                 Table::num(to_ns(host.mc.timing.t_rp))});
      t.row({"RPQ / WPQ per channel",
             std::to_string(host.mc.rpq_capacity) + " / " + std::to_string(host.mc.wpq_capacity)});
      t.row({"PCIe eff. write / read (GB/s)", Table::num(host.pcie_write_gb_per_s, 1) + " / " +
                                                  Table::num(host.pcie_read_gb_per_s, 1)});
      t.row({"IIO write / read credits", std::to_string(host.iio.write_credits) + " / " +
                                             std::to_string(host.iio.read_credits)});
      t.print(os);

      const core::Metrics& seq = out[b.seq].metrics;
      const core::Metrics& one = out[b.seq + 1].metrics;
      banner("Calibration: " + host.name, os);
      Table c({"property", "value", "paper"});
      c.row({"theoretical DRAM BW (GB/s)", Table::num(host.dram_peak_gb_per_s(), 1),
             clx ? "46.9" : "102.4"});
      c.row({"seq-read saturation (" + std::to_string(b.seq_cores) + " cores)",
             Table::pct(seq.total_mem_gbps() / host.dram_peak_gb_per_s() * 100), ">90%"});
      c.row({"unloaded C2M-Read latency (ns)", Table::num(one.lfb_latency_ns, 1), "~70"});
      c.row({"LFB credits (max occupancy)", std::to_string(one.lfb_max_occupancy), "10-12"});
      c.row({"unloaded P2M-Write latency (ns)",
             Table::num(out[b.seq + 2].metrics.p2m_write.latency_ns, 1), "~300"});
      c.row({"P2M-Write throughput (GB/s)", Table::num(out[b.seq + 3].metrics.p2m_dev_gbps, 1),
             clx ? "~14 (PCIe)" : "~28 (PCIe)"});
      c.row({"IIO write credits", std::to_string(host.iio.write_credits),
             clx ? "~92" : "(2 stacks)"});
      c.print(os);
    }
  };
}

// Loaded-latency curve (Intel MLC-style): memory latency measured by a
// dependent pointer chase (MLP = 1) as P2M load sweeps from 0 to PCIe line
// rate -- the per-request view of the blue regime: the latency a
// latency-critical app sees grows with peripheral load long before
// bandwidth saturates.
Printer loaded_latency(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  // Dependent random loads: one outstanding miss at a time (episodes of one
  // read, no compute) -- a pointer chase.
  core::C2MSpec chase;
  chase.workload.pattern = cpu::CoreWorkload::Pattern::kRandom;
  chase.workload.region = workloads::c2m_core_region(0);
  chase.workload.episode_reads = 1;
  chase.workload.episodes_per_query = 1;
  chase.workload.episode_compute = 0;
  static constexpr std::array<double, 6> loads{0.0, 2.0, 4.0, 7.0, 10.0, 14.0};
  std::vector<std::size_t> w;
  for (double load : loads) {
    std::optional<core::P2MSpec> p2m;
    if (load > 0) {
      p2m = fio_stream(host, true);
      p2m->storage->link_gb_per_s = load;
    }
    w.push_back(plan.add(host, chase, p2m, core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Loaded latency: pointer chase vs P2M-Write load (Cascade Lake)", os);
    Table t({"P2M load (GB/s)", "chase latency (ns)", "p99 (ns)", "mem util"});
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const core::RunOutcome& o = out[w[i]];
      t.row({Table::num(loads[i], 0), Table::num(o.metrics.lfb_latency_ns, 1),
             Table::num(o.latency[static_cast<std::size_t>(core::Domain::kC2MRead)].p99(), 0),
             Table::pct(o.metrics.total_mem_gbps() / host.dram_peak_gb_per_s() * 100)});
    }
    t.print(os);
    os << "\nA dependent chase has no credits to spare (MLP = 1), so every\n"
          "nanosecond of MC queueing lands on the application -- even at\n"
          "~30% memory utilization the p99 roughly doubles.\n";
  };
}

// Cross-generation check (section 2.1): the contention regimes are
// "reproducible across multiple generations of servers with different
// processors, different memory bandwidth to core count ratios, and
// different configurations". Quadrants 1 and 3 on the Ice Lake preset
// (4 channels, 102.4 GB/s, ~28 GB/s PCIe) and on a hypothetical
// next-generation host with an even lower memory-to-PCIe ratio.
Printer crossgen(core::Plan& plan) {
  // The trend the paper warns about: peripheral bandwidth growing faster
  // than memory bandwidth. Same DRAM as Cascade Lake, doubled PCIe.
  core::HostConfig next = core::cascade_lake();
  next.name = "imbalanced-next-gen (2ch DRAM, 28 GB/s PCIe)";
  next.pcie_write_gb_per_s = 28.0;
  next.iio.write_credits = 184;
  using Cores = std::vector<std::uint32_t>;
  struct Sweep {
    core::HostConfig host;
    Cores cores;
    bool c2m_writes;
    std::vector<core::ColocationRef> refs;
  };
  std::vector<Sweep> sweeps;
  for (const auto& [host, cores] :
       {std::pair{core::ice_lake(), Cores{4, 8, 16, 24, 28}}, std::pair{next, Cores{1, 2, 3, 4}}})
    for (bool writes : {false, true})
      sweeps.push_back({host, cores, writes,
                        plan.core_sweep(host, c2m_stream(writes), fio_stream(host, true), cores,
                                        core::default_run_options())});
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (const Sweep& s : sweeps) {
      banner(s.host.name + (s.c2m_writes ? ": quadrant 3" : ": quadrant 1"), os);
      Table t({"C2M cores", "C2M degr", "P2M degr", "mem util", "regime"});
      for (std::size_t i = 0; i < s.refs.size(); ++i) {
        const auto o = out[s.refs[i]];
        t.row({std::to_string(s.cores[i]), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x",
               Table::pct(o.colo.metrics.total_mem_gbps() / s.host.dram_peak_gb_per_s() * 100),
               core::to_string(o.regime())});
      }
      t.print(os);
    }
    os << "\nWith PCIe ~60% of DRAM bandwidth, the red regime arrives at a\n"
          "single C2M core: the resource-imbalance trend of section 1.\n";
  };
}

// Appendix-B companion: sweeping the P2M read/write mix. The paper's
// quadrants use pure P2M-Read or pure P2M-Write; real storage workloads mix
// both. The colocated equilibrium interpolates between quadrants 1 and 2
// (for C2M-Read) and 3 and 4 (for C2M-RW): the write component is what
// triggers the red regime.
Printer p2m_ratios(core::Plan& plan) {
  const core::HostConfig host = core::cascade_lake();
  static constexpr std::array<double, 5> mixes{0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<std::vector<core::ColocationRef>> refs(2);  // [c2m_writes][mix]
  for (bool writes : {false, true})
    for (double wr_pct : mixes) {
      // Storage writes are host reads: host-write fraction = 1 - wr_pct.
      core::P2MSpec p2m = fio_stream(host, true);
      p2m.storage->mixed_fraction = wr_pct;  // fraction flipped to host reads
      refs[writes].push_back(
          plan.colocation(host, c2m_stream(writes, 4), p2m, core::default_run_options()));
    }
  return [=](const core::Outcomes& out, std::ostream& os) {
    for (bool writes : {false, true}) {
      banner(std::string("P2M read/write mix sweep, 4 cores of ") +
                 (writes ? "C2M-ReadWrite" : "C2M-Read"),
             os);
      Table t({"storage write%", "C2M degr", "P2M degr", "P2M GB/s", "P2M-W lat (ns)",
               "regime"});
      for (std::size_t i = 0; i < mixes.size(); ++i) {
        const auto o = out[refs[writes][i]];
        t.row({Table::pct(mixes[i] * 100, 0), Table::num(o.c2m_degradation()) + "x",
               Table::num(o.p2m_degradation()) + "x", Table::num(o.colo.p2m_score, 1),
               Table::num(o.colo.metrics.p2m_write.latency_ns, 0),
               core::to_string(o.regime())});
      }
      t.print(os);
    }
    os << "\n(storage write% = fraction of requests doing storage writes, i.e.\n"
          " host-memory reads; 0% = the paper's P2M-Write quadrants.)\n";
  };
}

// How the DRAM address mapping shapes the blue regime: (1) the XOR bank
// hash (vs the lockstep-prone linear mapping), (2) the bank-interleave
// granularity and (3) the adaptive page-close policy, each by its
// quadrant-1 C2M degradation and row-miss inflation.
Printer ablation_bank_mapping(core::Plan& plan) {
  std::vector<Variant> variants(6, {"", core::cascade_lake()});
  variants[0].name = "xor-hash, 8KB bank chunks (default)";
  variants[1].name = "linear bank map (lockstep streams)";
  variants[1].host.dram.hash = dram::BankHash::kLinear;
  variants[2].name = "xor-hash, 2KB bank chunks";
  variants[2].host.dram.bank_interleave_bytes = 2048;
  variants[3].name = "xor-hash, 256B bank chunks (fine cyclic)";
  variants[3].host.dram.bank_interleave_bytes = 256;
  variants[4].name = "no page-close policy (rows stay open)";
  variants[4].host.mc.timing.t_page_close_idle = ms(10);
  variants[5].name = "aggressive page close (40 ns idle)";
  variants[5].host.mc.timing.t_page_close_idle = ns(40);
  std::vector<core::ColocationRef> refs;
  for (const Variant& v : variants)
    refs.push_back(plan.colocation(v.host, c2m_stream(false, 2), fio_stream(v.host, true),
                                   core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Ablation: bank hash and interleave granularity (quadrant 1, 2 C2M cores)", os);
    Table t({"variant", "iso C2M GB/s (2c)", "C2M degr (2c)", "rowmiss iso", "rowmiss colo",
             "P2M degr"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto o = out[refs[i]];
      t.row({variants[i].name, Table::num(o.iso_c2m.c2m_score, 1),
             Table::num(o.c2m_degradation()) + "x",
             Table::pct(o.iso_c2m.metrics.row_miss_ratio_read * 100),
             Table::pct(o.colo.metrics.row_miss_ratio_read * 100),
             Table::num(o.p2m_degradation()) + "x"});
    }
    t.print(os);
    os << "\nTakeaways: the linear map collapses isolated multi-stream throughput\n"
          "(lockstep bank conflicts); fine cyclic interleave destroys row locality\n"
          "for any interleaved streams; disabling the page-close policy removes\n"
          "most of the colocation row-miss inflation (the drain-interruption\n"
          "mechanism of section 5.1).\n";
  };
}

// Domain credit sizing, a direct probe of the T <= C x 64 / L law:
// (a) isolated C2M-Read throughput scales linearly with LFB credits until
//     the channel saturates;
// (b) P2M-Write tolerates blue-regime latency inflation only while its IIO
//     write credits exceed the needed C = T*L/64; shrinking the buffer
//     below ~65 credits makes "unaffected" P2M degrade.
Printer ablation_credits(core::Plan& plan) {
  static constexpr std::array<std::uint32_t, 7> lfbs{4, 8, 10, 12, 16, 24, 48};
  static constexpr std::array<std::uint32_t, 6> credit_counts{32, 48, 64, 80, 92, 128};
  std::vector<std::size_t> lfb_windows;
  for (std::uint32_t lfb : lfbs) {
    core::HostConfig host = core::cascade_lake();
    host.core.lfb_entries = lfb;
    lfb_windows.push_back(plan.add(host, c2m_stream(false), std::nullopt,
                                   core::default_run_options()));
  }
  std::vector<core::ColocationRef> refs;
  for (std::uint32_t credits : credit_counts) {
    core::HostConfig host = core::cascade_lake();
    host.iio.write_credits = credits;
    refs.push_back(plan.colocation(host, c2m_stream(false, 4), fio_stream(host, true),
                                   core::default_run_options()));
  }
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Ablation (a): LFB credits vs isolated single-core C2M-Read throughput", os);
    Table a({"LFB credits", "throughput GB/s", "latency (ns)", "law C*64/L"});
    for (std::size_t i = 0; i < lfbs.size(); ++i) {
      const auto& m = out[lfb_windows[i]].metrics;
      a.row({std::to_string(lfbs[i]), Table::num(m.c2m_app_gbps),
             Table::num(m.lfb_latency_ns, 1),
             Table::num(core::max_throughput_gbps(lfbs[i], m.lfb_latency_ns))});
    }
    a.print(os);

    banner("Ablation (b): IIO write credits vs P2M-Write tolerance (quadrant 1, 4 cores)", os);
    Table b({"IIO wr credits", "P2M iso GB/s", "P2M colo GB/s", "P2M degr",
             "credits needed (T*L/64)"});
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const auto o = out[refs[i]];
      b.row({std::to_string(credit_counts[i]), Table::num(o.iso_p2m.p2m_score, 2),
             Table::num(o.colo.p2m_score, 2), Table::num(o.p2m_degradation()) + "x",
             Table::num(core::credits_needed(o.iso_p2m.p2m_score,
                                             o.colo.metrics.p2m_write.latency_ns),
                        1)});
    }
    b.print(os);
    os << "\nTakeaway: spare credits are exactly what shields P2M in the blue\n"
          "regime; once C falls below T*L/64 the 'unaffected' side degrades.\n";
  };
}

// The memory controller's write-drain policy and the red regime: the WPQ
// watermarks and the read-priority dwell decide the quadrant-3
// equilibrium -- who wins the channel, how much P2M degrades, and where the
// CHA backlog sits.
Printer ablation_mc_policy(core::Plan& plan) {
  std::vector<Variant> variants(5, {"", core::cascade_lake()});
  variants[0].name = "default (hi=22 lo=8, dwell 12ns/read cap 150)";
  variants[1].name = "shallow drains (hi=22 lo=16)";
  variants[1].host.mc.wpq_low_wm = 16;
  variants[2].name = "deep drains (hi=22 lo=2)";
  variants[2].host.mc.wpq_low_wm = 2;
  variants[3].name = "no read priority (dwell 0)";
  variants[3].host.mc.dwell_per_queued_read = 0;
  variants[4].name = "strong read priority (dwell cap 400ns)";
  variants[4].host.mc.read_dwell_cap = ns(400);
  std::vector<core::ColocationRef> refs;
  for (const Variant& v : variants)
    refs.push_back(plan.colocation(v.host, c2m_stream(true, 4), fio_stream(v.host, true),
                                   core::default_run_options()));
  return [=](const core::Outcomes& out, std::ostream& os) {
    banner("Ablation: MC write-drain policy (quadrant 3, 4 C2M cores)", os);
    Table t({"policy", "C2M degr", "P2M degr", "P2M-W lat (ns)", "N_waiting", "WPQ full",
             "switch cycles/us"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto o = out[refs[i]];
      const auto& m = o.colo.metrics;
      t.row({variants[i].name, Table::num(o.c2m_degradation()) + "x",
             Table::num(o.p2m_degradation()) + "x", Table::num(m.p2m_write.latency_ns, 0),
             Table::num(m.n_waiting, 1), Table::pct(m.wpq_full_fraction * 100),
             Table::num(m.mc_switch_cycles / m.window_ns * 1000, 1)});
    }
    t.print(os);
    os << "\nTakeaway: read priority (the dwell) is what pushes the write backlog\n"
          "into the CHA tracker and lets C2M antagonize P2M; without it the MC\n"
          "spreads the pain evenly and the red regime's asymmetry disappears.\n";
  };
}

}  // namespace hostnet::figures
