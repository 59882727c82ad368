// hostnet_figures [--mode fork|cold] OUT_DIR: regenerate every paper
// figure, table, ablation, extension and worked study in one run.
//
// Each figure adds its windows to one union plan; one core::execute
// (parallel_threads() workers) simulates each distinct window once, however
// many figures read it; then each figure's printer writes OUT_DIR/<name>.txt.
// `--mode fork` (the default) runs each fingerprint's windows on one warmed
// host; `--mode cold` builds and warms every distinct window, the reference
// the fork path must match byte for byte. scripts/check_golden.sh diffs
// those files against bench/goldens/.
//
// HOSTNET_THREADS, HOSTNET_MEASURE_US and HOSTNET_WARMUP_US apply as in
// core::execute and core::default_run_options. Prints one provenance line
// to stderr:
//   figures: W windows, J jobs, H checkpoint hits, O outcome hits
// Exit status: 0 = every file written, 1 = a run or write error, 2 = usage.
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "figures.hpp"

namespace fig = hostnet::figures;

namespace {

// In name order; each name is its golden's basename.
const fig::Figure kFigures[] = {
    {"bench_ablation_bank_mapping", fig::ablation_bank_mapping},
    {"bench_ablation_credits", fig::ablation_credits},
    {"bench_ablation_mc_policy", fig::ablation_mc_policy},
    {"bench_crossgen", fig::crossgen},
    {"bench_ext_hostcc", fig::ext_hostcc},
    {"bench_ext_isolation", fig::ext_isolation},
    {"bench_ext_multi_iio", fig::ext_multi_iio},
    {"bench_ext_predictor", fig::ext_predictor},
    {"bench_ext_tail_latency", fig::ext_tail_latency},
    {"bench_ext_tcp_stacks", fig::ext_tcp_stacks},
    {"bench_fig01_apps_icelake", fig::fig01_apps_icelake},
    {"bench_fig02_ddio", fig::fig02_ddio},
    {"bench_fig03_quadrants", fig::fig03_quadrants},
    {"bench_fig06_domain_evidence", fig::fig06_domain_evidence},
    {"bench_fig07_quadrant1", fig::fig07_quadrant1},
    {"bench_fig08_quadrant3", fig::fig08_quadrant3},
    {"bench_fig11_formula_error", fig::fig11_formula_error},
    {"bench_fig12_formula_breakdown", fig::fig12_formula_breakdown},
    {"bench_fig13_14_quadrants24", fig::fig13_14_quadrants24},
    {"bench_fig15_17_apps_rw", fig::fig15_17_apps_rw},
    {"bench_fig18_rdma_quadrants", fig::fig18_rdma_quadrants},
    {"bench_fig19_tcp", fig::fig19_tcp},
    {"bench_fig20_24_rdma_rootcause", fig::fig20_24_rdma_rootcause},
    {"bench_fig25_26_tcp_rootcause", fig::fig25_26_tcp_rootcause},
    {"bench_fig27_28_rdma_formula", fig::fig27_28_rdma_formula},
    {"bench_fig29_30_tcp_formula", fig::fig29_30_tcp_formula},
    {"bench_loaded_latency", fig::loaded_latency},
    {"bench_p2m_ratios", fig::p2m_ratios},
    {"bench_table1_calibration", fig::table1_calibration},
    {"capacity_planner", fig::capacity_planner},
    {"netapp_rx", fig::netapp_rx},
    {"noisy_neighbor", fig::noisy_neighbor},
};

}  // namespace

int main(int argc, char** argv) {
  const bool with_mode = argc == 4 && std::string(argv[1]) == "--mode";
  const std::string mode = with_mode ? argv[2] : "fork";
  if (!(argc == 2 || with_mode) || (mode != "fork" && mode != "cold")) {
    std::cerr << "usage: hostnet_figures [--mode fork|cold] OUT_DIR\n";
    return 2;
  }
  hostnet::core::ExecOptions exec;
  if (mode == "cold") exec.mode = hostnet::core::SweepMode::kCold;
  try {
    const std::filesystem::path out_dir = argv[argc - 1];
    std::filesystem::create_directories(out_dir);

    hostnet::core::Plan plan;
    std::vector<fig::Printer> printers;
    for (const fig::Figure& f : kFigures) printers.push_back(f.plan(plan));
    const hostnet::core::Outcomes out = hostnet::core::execute(plan, exec);
    // A kCold job is one distinct window; ExecStats counts kFork jobs only.
    const std::uint64_t jobs = exec.mode == hostnet::core::SweepMode::kFork
                                   ? out.cache.checkpoint_misses
                                   : plan.size() - out.cache.outcome_hits;
    std::cerr << "figures: " << plan.size() << " windows, " << jobs << " jobs, "
              << out.cache.checkpoint_hits << " checkpoint hits, "
              << out.cache.outcome_hits << " outcome hits\n";

    for (std::size_t i = 0; i < printers.size(); ++i) {
      const std::filesystem::path file = out_dir / (std::string(kFigures[i].name) + ".txt");
      std::ofstream os(file);
      printers[i](out, os);
      os.close();
      if (!os) {
        std::cerr << "hostnet_figures: cannot write " << file << "\n";
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "hostnet_figures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
