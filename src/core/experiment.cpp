#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "core/parallel.hpp"

namespace hostnet::core {

namespace {

/// A window-length override in microseconds, or `fallback` when `var` is
/// unset. Rejects anything but a finite number (a typo must not silently
/// run a 0 us window).
Tick env_us(const char* var, Tick fallback, bool allow_zero) {
  const char* e = std::getenv(var);
  if (!e) return fallback;
  const std::string what = std::string(var) + "='" + e + "'";
  char* end = nullptr;
  const double v = std::strtod(e, &end);
  if (end == e || *end != '\0')
    throw std::invalid_argument(what + " is not a number of microseconds");
  return window_ticks(v, allow_zero, what);
}

}  // namespace

Tick window_ticks(double v, bool allow_zero, const std::string& what) {
  constexpr Tick kMaxUs = std::numeric_limits<Tick>::max() / kMicrosecond;
  if (!std::isfinite(v)) throw std::invalid_argument(what + " is not a number of microseconds");
  if (v < 0 || v > static_cast<double>(kMaxUs) || (us(v) <= 0 && !allow_zero))
    throw std::invalid_argument(what + " must be " + (allow_zero ? "non-negative" : "positive") +
                                " and at most " + std::to_string(kMaxUs) + " us");
  return us(v);
}

RunOptions default_run_options() {
  RunOptions o;
  o.measure = env_us("HOSTNET_MEASURE_US", o.measure, /*allow_zero=*/false);
  o.warmup = env_us("HOSTNET_WARMUP_US", o.warmup, /*allow_zero=*/true);
  return o;
}

namespace {

void add_c2m(HostSystem& host, const C2MSpec& spec) {
  for (std::uint32_t i = 0; i < spec.cores; ++i) {
    cpu::CoreWorkload wl = spec.workload;
    if (spec.per_core_region) wl.region.base += static_cast<std::uint64_t>(i) * spec.region_stride;
    host.add_core(wl);
  }
}

bool episodic(const C2MSpec& spec) {
  return spec.workload.episode_reads + spec.workload.episode_writes > 0;
}

// -- config fingerprint -------------------------------------------------------
// A canonical byte encoding walked off the field tables (common/fields.hpp):
// leaves only (a whole-struct memcpy would copy indeterminate padding), with
// a presence byte per optional and a length per string.

template <class T>
void enc(std::string& s, const T& v) {
  if constexpr (fields::Table<T>) {
    visit_fields(v, [&s](const char*, const auto& field) { enc(s, field); });
  } else if constexpr (fields::is_optional_v<T>) {
    enc(s, static_cast<std::uint8_t>(v.has_value()));
    if (v) enc(s, *v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc(s, static_cast<std::uint64_t>(v.size()));
    s.append(v);
  } else {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "a fingerprinted struct needs a HOSTNET_FIELDS table");
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    s.append(buf, sizeof(T));
  }
}

/// The key of a resolved window: its leaves, then seed and warmup.
std::string fingerprint(const Resolved& r, std::uint64_t seed, Tick warmup) {
  std::string s;
  s.reserve(512);
  enc(s, r);
  enc(s, seed);
  enc(s, warmup);
  return s;
}

/// Build the resolved window on its host (constructed from r.host), in the
/// one construction order both paths use -- a second IIO stack, cores,
/// storage, the transport, then hostCC: component seeds and event order
/// depend on it.
void place(HostSystem& host, const Resolved& r) {
  const bool second_stack = r.p2m && r.p2m->second_stack;
  if (second_stack) host.add_iio_stack(r.host.iio);
  if (r.c2m) add_c2m(host, *r.c2m);
  if (r.p2m && r.p2m->storage) host.add_storage(*r.p2m->storage);
  if (r.p2m && r.p2m->second_storage)
    host.add_storage(*r.p2m->second_storage, second_stack ? 1 : 0);
  if (r.p2m && r.p2m->tcp) host.add_tcp_receiver(*r.p2m->tcp, *r.copy_core);
  if (r.p2m && r.p2m->rdma_write) host.add_nic(r.p2m->rdma_write->nic());
  if (r.c2m && r.c2m->hostcc) host.add_hostcc(*r.c2m->hostcc);
}

/// The window's outcome, read off its host at the window's end.
RunOutcome collect(const HostSystem& host, const Resolved& r) {
  RunOutcome out;
  const Tick now = host.sim().now();
  out.metrics = host.collect();
  if (r.c2m)
    out.c2m_score = episodic(*r.c2m) ? out.metrics.queries_per_sec : out.metrics.c2m_app_gbps;
  if (!host.tcp_receivers().empty()) out.transport = host.tcp_receivers().front()->collect(now);
  if (!host.nics().empty()) out.transport = host.nics().front()->collect(now);
  if (r.p2m)
    out.p2m_score = r.p2m->tcp || r.p2m->rdma_write ? out.transport.goodput_gbps
                                                    : out.metrics.p2m_dev_gbps;
  for (const flow::DomainRegistry::Entry& e : host.domains().entries())
    if (const std::optional<Domain> d = e.domain())
      out.latency[static_cast<std::size_t>(*d)].merge(e.pool->station().histogram());
  if (!host.hostcc().empty()) out.hostcc_throttle = host.hostcc().front()->avg_throttle(now);
  return out;
}

}  // namespace

cpu::CoreConfig copy_core_config(const HostConfig& host, const net::TcpConfig& tcp) {
  cpu::CoreConfig c = host.core;
  c.lfb_entries = tcp.copy_width;
  return c;
}

Resolved resolve(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                 const std::optional<P2MSpec>& p2m) {
  if (p2m && p2m->tcp && p2m->rdma_write)
    throw std::invalid_argument("P2MSpec '" + p2m->name +
                                "' places both a TCP and an RDMA-write transport");
  Resolved r{host, c2m, p2m, std::nullopt};
  r.host.name = HostConfig{}.name;
  if (r.c2m) r.c2m->name = C2MSpec{}.name;
  if (r.p2m) {
    P2MSpec& p = *r.p2m;
    p.name = P2MSpec{}.name;
    if (!p.second_storage) p.second_stack = false;
    if (p.tcp) {
      net::TcpConfig& t = *p.tcp;
      if (t.stack != net::TcpStackKind::kDctcp) t.dctcp_g = net::TcpConfig{}.dctcp_g;
      if (!t.nic.pfc) {
        t.nic.pause_threshold = net::NicConfig{}.pause_threshold;
        t.nic.resume_threshold = net::NicConfig{}.resume_threshold;
      }
      r.copy_core = copy_core_config(r.host, t);
    }
  }
  return r;
}

std::string config_fingerprint(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                               const std::optional<P2MSpec>& p2m, std::uint64_t seed,
                               Tick warmup) {
  return fingerprint(resolve(host, c2m, p2m), seed, warmup);
}

// -- Plan + execute -------------------------------------------------------------

std::size_t Plan::add(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                      const std::optional<P2MSpec>& p2m, const RunOptions& opt) {
  windows_.push_back(Window{host, c2m, p2m, opt});
  return windows_.size() - 1;
}

ColocationRef Plan::colocation(const HostConfig& host, const std::optional<C2MSpec>& c2m,
                               const std::optional<P2MSpec>& p2m, const RunOptions& opt) {
  ColocationRef r;
  if (c2m) r.iso_c2m = add(host, c2m, std::nullopt, opt);
  if (p2m) r.iso_p2m = add(host, std::nullopt, p2m, opt);
  r.colo = c2m && p2m ? add(host, c2m, p2m, opt) : c2m ? r.iso_c2m : r.iso_p2m;
  return r;
}

std::vector<ColocationRef> Plan::core_sweep(const HostConfig& host, C2MSpec c2m,
                                            const P2MSpec& p2m,
                                            const std::vector<std::uint32_t>& cores,
                                            const RunOptions& opt) {
  const std::size_t iso_p2m = add(host, std::nullopt, p2m, opt);
  std::vector<ColocationRef> refs;
  refs.reserve(cores.size());
  for (std::uint32_t n : cores) {
    c2m.cores = n;
    ColocationRef r;
    r.iso_c2m = add(host, c2m, std::nullopt, opt);
    r.iso_p2m = iso_p2m;
    r.colo = add(host, c2m, p2m, opt);
    refs.push_back(r);
  }
  return refs;
}

ColocationOutcome Outcomes::operator[](const ColocationRef& r) const {
  auto at = [this](std::size_t i) {
    return i == ColocationRef::kNone ? RunOutcome{} : windows[i];
  };
  return ColocationOutcome{at(r.iso_c2m), at(r.iso_p2m), at(r.colo)};
}

Outcomes execute(const Plan& plan, const ExecOptions& opt) {
  const bool fork = opt.mode == SweepMode::kFork;
  const std::vector<Window>& ws = plan.windows();

  // Jobs in first-appearance order, keyed by fingerprint (kFork) or by
  // fingerprint + measure (kCold). jobs[j] lists the job's distinct windows,
  // each as the plan indices of its identical windows: the first is
  // simulated and the rest copy its outcome.
  // job_cfg[j] is the resolved config job j builds.
  using Identical = std::vector<std::size_t>;
  std::vector<std::vector<Identical>> jobs;
  std::vector<Resolved> job_cfg;
  std::unordered_map<std::string, std::size_t> job_of;
  std::unordered_map<std::string, std::pair<std::size_t, std::size_t>> window_of;
  Outcomes out;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const Window& w = ws[i];
    Resolved r = resolve(w.host, w.c2m, w.p2m);
    const std::string fp = fingerprint(r, w.opt.seed, w.opt.warmup);
    std::string key = fp;
    key.append(reinterpret_cast<const char*>(&w.opt.measure), sizeof(w.opt.measure));
    if (const auto it = window_of.find(key); it != window_of.end()) {
      jobs[it->second.first][it->second.second].push_back(i);
      ++out.cache.outcome_hits;
      continue;
    }
    const auto [job, fresh] = job_of.emplace(fork ? fp : key, jobs.size());
    if (fresh) {
      jobs.emplace_back();
      job_cfg.push_back(std::move(r));
    }
    std::vector<Identical>& distinct = jobs[job->second];
    window_of.emplace(std::move(key), std::pair{job->second, distinct.size()});
    distinct.push_back({i});
  }
  if (fork) {
    out.cache.checkpoint_misses = jobs.size();
    for (auto& distinct : jobs) {
      out.cache.checkpoint_hits += distinct.size() - 1;
      // Shortest first: a job's windows differ only in measure, so each is
      // a prefix of the next.
      std::sort(distinct.begin(), distinct.end(), [&ws](const Identical& a, const Identical& b) {
        return ws[a.front()].opt.measure < ws[b.front()].opt.measure;
      });
    }
  }

  out.windows.resize(ws.size());
  run_parallel(
      jobs.size(),
      [&](std::size_t j) {
        const std::vector<Identical>& distinct = jobs[j];
        const Resolved& r = job_cfg[j];
        const Window& first = ws[distinct.front().front()];
        HostSystem host(r.host, first.opt.seed);  // freed with the job
        place(host, r);
        // run(warmup, 0) warms and resets counters, leaving the host at the
        // measurement quiesce point. run_until() drains every event at or
        // before the boundary tick, so running on window by window replays
        // the exact event sequence of a cold run(warmup, measure) to each
        // boundary, and collect() is a pure read that leaves the run as is.
        host.run(first.opt.warmup, 0);
        Tick measured = 0;
        for (const Identical& same : distinct) {
          const Window& w = ws[same.front()];
          host.run_more(w.opt.measure - measured);
          measured = w.opt.measure;
          const RunOutcome o = collect(host, r);
          for (std::size_t i : same) out.windows[i] = o;
        }
      },
      opt.threads);
  return out;
}

}  // namespace hostnet::core
