// hostnet explorer: a small CLI to run one colocation experiment with
// custom knobs and dump the full measurement set -- the quickest way to
// poke at the host network without writing code.
//
// Usage:
//   explore [--preset cascade|icelake] [--c2m read|rw|redis|gapbs]
//           [--cores N] [--p2m write|read|none] [--ddio] [--no-prefetch]
//           [--measure-us N] [--seed N]
//           [--lfb N] [--iio-wr N] [--wpq N] [--tracker N]
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

const char* arg_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help")) {
    std::printf("see the header comment of examples/explore.cpp for usage\n");
    return 0;
  }

  const std::string preset = arg_value(argc, argv, "--preset")
                                 ? arg_value(argc, argv, "--preset")
                                 : "cascade";
  core::HostConfig host = preset == "icelake" ? core::ice_lake() : core::cascade_lake();
  if (has_flag(argc, argv, "--ddio")) host.cha.ddio = true;
  if (const char* v = arg_value(argc, argv, "--lfb")) host.core.lfb_entries = std::atoi(v);
  if (const char* v = arg_value(argc, argv, "--iio-wr")) host.iio.write_credits = std::atoi(v);
  if (const char* v = arg_value(argc, argv, "--wpq")) {
    host.mc.wpq_capacity = std::atoi(v);
    host.mc.wpq_high_wm = host.mc.wpq_capacity - 2;
    host.mc.wpq_low_wm = host.mc.wpq_capacity / 3;
  }
  if (const char* v = arg_value(argc, argv, "--tracker")) host.cha.write_tracker = std::atoi(v);
  if (!has_flag(argc, argv, "--no-prefetch") && preset == "icelake")
    host.core.prefetch_extra = 4;

  core::C2MSpec c2m;
  const std::string kind = arg_value(argc, argv, "--c2m") ? arg_value(argc, argv, "--c2m")
                                                          : "read";
  if (kind == "rw") {
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  } else if (kind == "redis") {
    c2m.workload = workloads::redis_read(workloads::c2m_core_region(0));
  } else if (kind == "gapbs") {
    c2m.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
    c2m.per_core_region = false;
  } else {
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  }
  c2m.cores = arg_value(argc, argv, "--cores")
                  ? static_cast<std::uint32_t>(std::atoi(arg_value(argc, argv, "--cores")))
                  : 4;

  core::P2MSpec p2m;
  const std::string pkind =
      arg_value(argc, argv, "--p2m") ? arg_value(argc, argv, "--p2m") : "write";
  if (pkind == "write")
    p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  else if (pkind == "read")
    p2m.storage = workloads::fio_p2m_read(host, workloads::p2m_region());

  auto opt = core::default_run_options();
  if (const char* v = arg_value(argc, argv, "--measure-us")) opt.measure = us(std::atof(v));
  if (const char* v = arg_value(argc, argv, "--seed")) opt.seed = std::strtoull(v, nullptr, 10);

  banner("explore: " + host.name + ", " + kind + " x" + std::to_string(c2m.cores) +
         " + p2m-" + pkind);
  // Without a P2M placement the colocation is the lone C2M window.
  core::Plan plan;
  const auto ref = plan.colocation(
      host, c2m, p2m.storage ? std::optional<core::P2MSpec>(p2m) : std::nullopt, opt);
  const auto o = core::execute(plan)[ref];
  const auto& m = o.colo.metrics;

  Table t({"metric", "value"});
  t.row({"C2M degradation", Table::num(o.c2m_degradation()) + "x"});
  t.row({"P2M degradation", Table::num(o.p2m_degradation()) + "x"});
  t.row({"regime", core::to_string(o.regime())});
  t.row({"C2M score (GB/s or q/s)", Table::num(o.colo.c2m_score, 1)});
  t.row({"P2M GB/s", Table::num(o.colo.p2m_score, 1)});
  t.row({"memory BW C2M r/w (GB/s)",
         Table::num(m.mem_gbps[0], 1) + " / " + Table::num(m.mem_gbps[1], 1)});
  t.row({"memory BW P2M r/w (GB/s)",
         Table::num(m.mem_gbps[2], 1) + " / " + Table::num(m.mem_gbps[3], 1)});
  t.row({"memory utilization",
         Table::pct(m.total_mem_gbps() / host.dram_peak_gb_per_s() * 100)});
  t.row({"LFB latency avg (ns)", Table::num(m.lfb_latency_ns, 1)});
  t.row({"LFB occupancy avg/max",
         Table::num(m.lfb_avg_occupancy, 1) + " / " + std::to_string(m.lfb_max_occupancy)});
  t.row({"P2M-Write latency (ns)", Table::num(m.p2m_write.latency_ns, 1)});
  t.row({"IIO wr credits in use", Table::num(m.p2m_write.credits_in_use, 1)});
  t.row({"RPQ occupancy avg", Table::num(m.avg_rpq_occupancy, 1)});
  t.row({"WPQ backpressure", Table::pct(m.wpq_full_fraction * 100)});
  t.row({"row miss ratio (reads)", Table::pct(m.row_miss_ratio_read * 100)});
  t.row({"CHA write backlog (N_waiting)", Table::num(m.n_waiting, 1)});
  t.row({"CHA->DRAM read latency (ns)", Table::num(m.cha_dram_read_latency_c2m_ns, 1)});
  t.row({"CHA->MC write latency (ns)", Table::num(m.cha_mc_write_latency_ns, 1)});
  t.print();
  return 0;
}
