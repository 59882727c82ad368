#include "fleet/runner.hpp"

#include <sstream>

#include "common/table.hpp"
#include "core/parallel.hpp"

namespace hostnet::fleet {

namespace {

/// Hosts of one config fingerprint, in fleet host-index order.
struct Shard {
  std::vector<std::size_t> hosts;
};

}  // namespace

FleetReport run_fleet(const Scenario& sc, const RunnerOptions& opt) {
  const std::vector<HostInstance> hosts = sc.expand();
  const std::vector<HostTemplate>& templates = sc.templates();

  // The fingerprint is a pure function of the template (measurement jitter
  // changes only the window length, never construction or warmup), so it is
  // computed once per template, not once per host.
  std::vector<std::string> tmpl_fp(templates.size());
  for (std::size_t i = 0; i < templates.size(); ++i)
    tmpl_fp[i] = core::config_fingerprint(templates[i].host, templates[i].c2m, templates[i].p2m,
                                          templates[i].seed, sc.base_options().warmup);

  // Shard by fingerprint, first-appearance order: every host that can share
  // a warm checkpoint lands on the shard that owns it, so each fingerprint
  // is warmed exactly once fleet-wide. Shard structure depends only on the
  // scenario -- never on the thread count -- which is what keeps reports
  // bit-identical for any HOSTNET_THREADS.
  std::vector<std::string> shard_fp;
  std::vector<Shard> shards;
  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    const std::string& fp = tmpl_fp[hosts[hi].tmpl];
    std::size_t s = 0;
    while (s < shard_fp.size() && shard_fp[s] != fp) ++s;
    if (s == shard_fp.size()) {
      shard_fp.push_back(fp);
      shards.push_back(Shard{});
    }
    shards[s].hosts.push_back(hi);
  }

  std::vector<FleetAggregate> aggs(shards.size(), FleetAggregate(sc.tenants().size()));
  std::vector<core::SweepCache::Stats> cache_stats(shards.size());
  core::run_parallel(
      shards.size(),
      [&](std::size_t s) {
        // The shard's SweepCache owns its warmed prototype hosts; replicas
        // of its fingerprint fork from (or memo-hit) those checkpoints.
        core::SweepCache cache;
        core::SweepCache* cptr = opt.mode == core::SweepMode::kCold ? nullptr : &cache;
        for (std::size_t hi : shards[s].hosts) {
          // The executor's per-host step: the colocation protocol's windows
          // (one window for a single-sided host -- degradation 1.0, regime
          // kNone) run in order through the shard's cache.
          const HostTemplate& t = templates[hosts[hi].tmpl];
          core::Plan plan;
          const core::ColocationRef ref = plan.colocation(t.host, t.c2m, t.p2m, hosts[hi].opt);
          aggs[s].add_host(t, core::run_windows(plan, cptr)[ref]);
        }
        cache_stats[s] = cache.stats();
      },
      opt.threads);

  FleetReport r;
  r.scenario = sc.name();
  r.hosts = hosts.size();
  r.fingerprints = shards.size();
  r.shards = shards.size();
  r.threads = opt.threads ? opt.threads : core::parallel_threads();
  r.agg = FleetAggregate(sc.tenants().size());
  for (const FleetAggregate& a : aggs) r.agg.merge(a);
  for (const core::SweepCache::Stats& s : cache_stats) r.cache.add(s);
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
    t.row({sc.tenants()[i], std::to_string(a.placements), Table::num(a.colo_score_sum / n, 2),
           Table::num(a.mean_degradation(), 2), Table::num(a.latency.p50(), 0),
           Table::num(a.latency.p99(), 0), Table::num(a.latency.p999(), 0)});
  }
  t.print(os);
  os << "regimes: none " << r.agg.regime_count(core::Regime::kNone) << ", blue "
     << r.agg.regime_count(core::Regime::kBlue) << ", red "
     << r.agg.regime_count(core::Regime::kRed) << " (of " << r.hosts << " hosts)\n";
  os << "sweep-cache: checkpoint hits " << r.cache.checkpoint_hits << ", misses "
     << r.cache.checkpoint_misses << "; outcome memo hits " << r.cache.outcome_hits
     << ", misses " << r.cache.outcome_misses << "\n";
  return os.str();
}

}  // namespace hostnet::fleet
