// hostnet_fleet -- the config-driven fleet driver: scenario file in, fleet
// report out (ROADMAP item 1). See src/fleet/scenario.hpp for the format
// and scenarios/ for examples.
//
//   hostnet_fleet scenarios/demo.fleet
//   hostnet_fleet scenarios/demo.fleet --threads 4 --mode cold --json
//
// `--mode fork` (default) warms each distinct window fingerprint once and
// runs that host on through its windows, shortest first, reading each on
// the way; `--mode cold` builds and warms every distinct window (the
// reference path; reports are bit-identical either way, apart from the
// sweep-cache counters). Exit status: 0 on success; 2 on usage/parse errors
// (a --threads or HOSTNET_THREADS value that is not a positive integer
// included); 3 after printing the report when a host stalled -- a placed
// tenant completed nothing in its window, so the host has no degradation
// ratio or regime (the report's `stalled N`).
#include <cstdio>
#include <string>

#include "core/parallel.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"

using namespace hostnet;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.fleet> [--threads N] [--mode fork|cold] [--json]\n"
               "  --threads N   worker threads, N >= 1 (default: HOSTNET_THREADS, else hardware)\n"
               "  --mode M      fork = warm once per fingerprint (default); cold = reference\n"
               "  --json        machine-readable report on stdout\n",
               argv0);
  return 2;
}

void print_json(const fleet::Scenario& sc, const fleet::FleetReport& r) {
  std::printf("{\n  \"scenario\": \"%s\",\n  \"hosts\": %llu,\n", r.scenario.c_str(),
              static_cast<unsigned long long>(r.hosts));
  std::printf("  \"fingerprints\": %zu,\n  \"shards\": %zu,\n  \"threads\": %u,\n",
              r.fingerprints, r.shards, r.threads);
  std::printf("  \"regimes\": {\"none\": %llu, \"blue\": %llu, \"red\": %llu, "
              "\"stalled\": %llu},\n",
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kNone)),
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kBlue)),
              static_cast<unsigned long long>(r.agg.regime_count(core::Regime::kRed)),
              static_cast<unsigned long long>(r.agg.stalled));
  std::printf("  \"sweep_cache\": {\"checkpoint_hits\": %llu, \"checkpoint_misses\": %llu, "
              "\"outcome_hits\": %llu},\n",
              static_cast<unsigned long long>(r.cache.checkpoint_hits),
              static_cast<unsigned long long>(r.cache.checkpoint_misses),
              static_cast<unsigned long long>(r.cache.outcome_hits));
  std::printf("  \"tenants\": [\n");
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const fleet::TenantAggregate& a = r.agg.tenants[i];
    const double n = a.placements ? static_cast<double>(a.placements) : 1.0;
    // null for a value with no sample: the latency of a tenant whose windows
    // completed nothing, the degradation of one placed only on stalled hosts.
    const auto num = [](bool sampled, double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", v);
      return sampled ? std::string(buf) : std::string("null");
    };
    const auto lat = [&](double v) { return num(a.latency.count() > 0, v); };
    std::printf("    {\"name\": \"%s\", \"placements\": %llu, \"mean_score\": %.6g, "
                "\"mean_degradation\": %s, \"latency_ns\": {\"p50\": %s, \"p99\": %s, "
                "\"p999\": %s}}%s\n",
                sc.tenants()[i].c_str(), static_cast<unsigned long long>(a.placements),
                a.colo_score_sum / n,
                num(a.degradation_samples > 0, a.mean_degradation()).c_str(),
                lat(a.latency.p50()).c_str(),
                lat(a.latency.p99()).c_str(), lat(a.latency.p999()).c_str(),
                i + 1 < sc.tenants().size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  fleet::RunnerOptions opt;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      opt.threads = core::parse_thread_count(argv[++i]);
      if (opt.threads == 0) {
        std::fprintf(stderr, "hostnet_fleet: --threads '%s' is not a positive integer\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "fork") opt.mode = core::SweepMode::kFork;
      else if (m == "cold") opt.mode = core::SweepMode::kCold;
      else
        return usage(argv[0]);
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    const fleet::Scenario sc = fleet::Scenario::load(path);
    const fleet::FleetReport report = fleet::run_fleet(sc, opt);
    if (json)
      print_json(sc, report);
    else
      std::fputs(fleet::format_report(sc, report).c_str(), stdout);
    if (report.agg.stalled > 0) return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostnet_fleet: %s\n", e.what());
    return 2;
  }
  return 0;
}
