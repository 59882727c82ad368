#include "fleet/runner.hpp"

#include <sstream>

#include "common/table.hpp"
#include "core/parallel.hpp"

namespace hostnet::fleet {

FleetReport run_fleet(const Scenario& sc, const RunnerOptions& opt) {
  const std::vector<HostInstance> hosts = sc.expand();
  const std::vector<HostTemplate>& templates = sc.templates();

  // One plan holds every host's colocation windows, in host-index order;
  // execute() simulates each distinct window once and makes each window
  // fingerprint one job (kFork) or each distinct window one job (kCold).
  core::Plan plan;
  std::vector<core::ColocationRef> refs;
  refs.reserve(hosts.size());
  for (const HostInstance& h : hosts) {
    const HostTemplate& t = templates[h.tmpl];
    refs.push_back(plan.colocation(t.host, t.c2m, t.p2m, h.opt));
  }
  const core::Outcomes out = core::execute(plan, {opt.threads, opt.mode});

  // Fold groups are template fingerprints in first-appearance order (the
  // fingerprint is a pure function of the template: jitter changes only the
  // window length). Each group folds its hosts in host-index order and the
  // groups merge in group order -- a float order fixed by the scenario, so
  // reports are bit-identical for any thread count and either mode.
  std::vector<std::string> tmpl_fp(templates.size());
  for (std::size_t i = 0; i < templates.size(); ++i)
    tmpl_fp[i] = core::config_fingerprint(templates[i].host, templates[i].c2m, templates[i].p2m,
                                          templates[i].seed, sc.base_options().warmup);
  std::vector<std::string> group_fp;
  std::vector<FleetAggregate> groups;
  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    const std::string& fp = tmpl_fp[hosts[hi].tmpl];
    std::size_t g = 0;
    while (g < group_fp.size() && group_fp[g] != fp) ++g;
    if (g == group_fp.size()) {
      group_fp.push_back(fp);
      groups.emplace_back(sc.tenants().size());
    }
    groups[g].add_host(templates[hosts[hi].tmpl], out[refs[hi]]);
  }

  FleetReport r;
  r.scenario = sc.name();
  r.hosts = hosts.size();
  r.fingerprints = groups.size();
  r.shards = groups.size();
  r.threads = opt.threads ? opt.threads : core::parallel_threads();
  r.agg = FleetAggregate(sc.tenants().size());
  for (const FleetAggregate& a : groups) r.agg.merge(a);
  r.cache = out.cache;
  return r;
}

std::string format_report(const Scenario& sc, const FleetReport& r) {
  std::ostringstream os;
  os << "fleet " << r.scenario << ": " << r.hosts << " hosts, " << sc.templates().size()
     << " templates, " << r.fingerprints << " fingerprints, " << r.shards << " shards\n";
  Table t({"tenant", "placements", "mean score", "mean degr.", "lat p50 ns", "lat p99 ns",
           "lat p999 ns"});
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const TenantAggregate& a = r.agg.tenants[i];
    const double n = a.placements ? static_cast<double>(a.placements) : 1.0;
    // A tenant whose windows completed nothing has no latency to show.
    const auto lat = [&a](double v) {
      return a.latency.count() > 0 ? Table::num(v, 0) : std::string("-");
    };
    t.row({sc.tenants()[i], std::to_string(a.placements), Table::num(a.colo_score_sum / n, 2),
           Table::num(a.mean_degradation(), 2), lat(a.latency.p50()), lat(a.latency.p99()),
           lat(a.latency.p999())});
  }
  t.print(os);
  os << "regimes: none " << r.agg.regime_count(core::Regime::kNone) << ", blue "
     << r.agg.regime_count(core::Regime::kBlue) << ", red "
     << r.agg.regime_count(core::Regime::kRed) << " (of " << r.hosts << " hosts)\n";
  os << "sweep-cache: checkpoint hits " << r.cache.checkpoint_hits << ", misses "
     << r.cache.checkpoint_misses << "; outcome hits " << r.cache.outcome_hits << "\n";
  return os.str();
}

}  // namespace hostnet::fleet
