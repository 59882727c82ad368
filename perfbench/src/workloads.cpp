#include "workloads.hpp"

#include <sstream>

#include "core/presets.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace hc = hostnet::core;
namespace wl = hostnet::workloads;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

WindowInput sweep_input(Quadrant q, std::uint64_t seed, std::uint64_t index) {
  WindowInput in;
  in.quadrant = q;
  in.cores = kCoreCycle[index % kCoreCycle.size()];
  in.measure_us = kSweepMeasureUs[q == Quadrant::kQ4][index % kCoreCycle.size()];
  in.host_seed = splitmix64(splitmix64(seed) ^ index) | 1;
  return in;
}

WindowRun run_window(const WindowInput& in, SpanLog& spans) {
  const hc::HostConfig cfg = hc::cascade_lake();
  const bool q4 = in.quadrant == Quadrant::kQ4;
  WindowRun r;
  {
    Scope s(spans, "core.build");
    r.host = std::make_unique<hc::HostSystem>(cfg, in.host_seed);
    for (std::uint32_t c = 0; c < in.cores; ++c) {
      const hostnet::mem::Region region = wl::c2m_core_region(c);
      r.host->add_core(q4 ? wl::c2m_read_write(region) : wl::c2m_read(region));
    }
    r.host->add_storage(q4 ? wl::fio_p2m_read(cfg, wl::p2m_region())
                           : wl::fio_p2m_write(cfg, wl::p2m_region()));
  }
  {
    Scope s(spans, "core.warmup");
    r.host->run(hostnet::us(kSweepWarmupUs), 0);
  }
  r.events_warmup = r.host->sim().events_executed();
  {
    Scope s(spans, "core.measure");
    r.host->run_more(hostnet::us(in.measure_us));
  }
  {
    Scope s(spans, "core.collect");
    r.metrics = r.host->collect();
  }
  r.events = r.host->sim().events_executed();
  for (std::uint32_t i = 0; i < r.host->mc().num_channels(); ++i) {
    const auto& k = r.host->mc().channel(i).kick_stats();
    r.kicks.scheduled += k.scheduled;
    r.kicks.cancelled += k.cancelled;
    r.kicks.deduped += k.deduped;
  }
  return r;
}

std::string fleet_scenario_text(std::uint64_t seed) {
  // One template per P2M placement kind, so every template has its own
  // config fingerprint (five shards); C2M tenants and presets alternate so
  // both testbeds and all three compute tenants appear.
  struct Tmpl {
    const char* name;
    const char* preset;
    const char* c2m_tenant;
    const char* c2m;
    std::uint32_t cores;
    const char* p2m_tenant;
    const char* p2m;
  };
  static constexpr Tmpl kTemplates[] = {
      {"kv-clx", "cascade-lake", "tenant-redis", "redis_read", 4, "tenant-fio-w", "fio_write"},
      {"graph-icx", "ice-lake", "tenant-gapbs", "gapbs_pr", 4, "tenant-fio-r", "fio_read"},
      {"rx-dctcp-clx", "cascade-lake", "tenant-stream", "c2m_read_write", 2, "tenant-dctcp",
       "tcp_dctcp"},
      {"rx-bbr-icx", "ice-lake", "tenant-stream", "c2m_read_write", 2, "tenant-bbr", "tcp_bbr"},
      {"rx-davis-clx", "cascade-lake", "tenant-redis", "redis_read", 2, "tenant-davis",
       "tcp_davis"},
  };
  std::ostringstream os;
  os << "fleet perfbench\n"
     << "seed " << (splitmix64(seed) >> 1) << "\n"
     << "warmup_us " << kFleetWarmupUs << "\n"
     << "measure_us " << kFleetMeasureUs << "\n"
     << "measure_jitter_pct " << kFleetJitterPct << "\n";
  std::uint64_t s = seed;
  for (const Tmpl& t : kTemplates) {
    s = splitmix64(s);
    os << "template " << t.name << "\n"
       << "  preset " << t.preset << "\n"
       << "  seed " << (s >> 1) << "\n"
       << "  c2m " << t.c2m_tenant << " " << t.c2m << " cores=" << t.cores << "\n"
       << "  p2m " << t.p2m_tenant << " " << t.p2m << "\n"
       << "end\n";
  }
  for (const Tmpl& t : kTemplates) os << "hosts " << kFleetReplicas << " " << t.name << "\n";
  return os.str();
}

namespace {

std::uint64_t windows_per_host(const hostnet::fleet::HostTemplate& t) {
  return t.c2m && t.p2m ? 3 : 1;
}

}  // namespace

double fleet_simulated_us(const hostnet::fleet::Scenario& sc,
                          const std::vector<hostnet::fleet::HostInstance>& hosts) {
  std::vector<bool> warmed(sc.templates().size(), false);
  double total = 0;
  for (const hostnet::fleet::HostInstance& h : hosts) {
    const double w = static_cast<double>(windows_per_host(sc.templates()[h.tmpl]));
    total += w * hostnet::to_us(h.opt.measure);
    if (!warmed[h.tmpl]) total += w * hostnet::to_us(h.opt.warmup);
    warmed[h.tmpl] = true;
  }
  return total;
}

std::uint64_t fleet_windows(const hostnet::fleet::Scenario& sc,
                            const std::vector<hostnet::fleet::HostInstance>& hosts) {
  std::uint64_t n = 0;
  for (const hostnet::fleet::HostInstance& h : hosts) n += windows_per_host(sc.templates()[h.tmpl]);
  return n;
}

}  // namespace perfbench
