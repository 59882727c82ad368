// hostnet_perfbench -- host-time benchmark of the hostnet simulator.
//
//   hostnet_perfbench --workload q1_sweep|q4_sweep|fleet_fork --seed <n>
//                     --seconds <s> --trace 0|1 [--spans-out <path>]
//
// Each workload is a closed loop with one client: the next operation starts
// when the previous one returns. Times are host time (steady_clock), scaled
// to the reference machine's speed by the calibration kernel run between
// operations (calibration.hpp); the raw wall-clock values are printed too.
// Simulated quantities say so in their names. The library is timed from
// outside, around calls into its public API; nothing inside src/ is
// instrumented.
//
// --trace 0 runs the loop untraced for --seconds and reports the end-to-end
// metrics. --trace 1 runs it untraced for half the time and then again with
// a span around every library call for the other half; it reports the
// per-layer metrics, each layer's self time and the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hpp"
#include "checks.hpp"
#include "core/experiment.hpp"
#include "fleet/runner.hpp"
#include "net/tcp_stack.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace hc = hostnet::core;
namespace fl = hostnet::fleet;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Sweep windows in the digest prefix (four 1/2/4/8 cycles): every run
/// executes them, so the digest and the simulated per-layer statistics are
/// pure functions of the seed.
constexpr std::uint64_t kPrefixWindows = 16;
/// Minimum windows of an untraced sweep run, so window_ms.p90 has at least
/// ten windows beyond it.
constexpr std::uint64_t kMinSweepWindows = 100;
/// Span layers (the prefix of every span name): the benchmark's own loop,
/// its output checks, and the library layers it calls into.
constexpr const char* kLayers[] = {"bench", "check", "core", "fleet"};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every per-layer metric, printed by every workload with --trace 1; a
/// layer the workload does not reach reads 0. BENCHMARK.json lists the same.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"sim.events", "count"},           {"sim.ns_per_event", "ns"},
        {"sim.events_per_line", "count"},  {"core.build_ms", "ms"},
        {"core.warmup_ms", "ms"},          {"core.measure_ms", "ms"},
        {"core.collect_us", "us"},         {"core.teardown_ms", "ms"},
        {"core.save_us", "us"},
        {"core.restore_us", "us"},         {"core.fingerprint_us", "us"},
        {"core.checkpoint_hits", "count"}, {"core.checkpoint_misses", "count"},
        {"core.outcome_hits", "count"},    {"core.fork_ratio", "ratio"},
        {"fleet.parse_ms", "ms"},          {"fleet.expand_ms", "ms"},
        {"fleet.run_s", "s"},              {"fleet.report_ms", "ms"},
        {"fleet.shards", "count"},         {"fleet.host_s", "s"},
        {"mc.kicks_scheduled", "count"},   {"mc.kicks_cancelled", "count"},
        {"mc.kicks_deduped", "count"},     {"mc.dead_kick_ratio", "ratio"},
        {"mc.lines_read", "count"},        {"mc.lines_written", "count"},
        {"mc.switch_cycles", "count"},     {"mc.row_miss_ratio_read", "ratio"},
        {"mc.row_miss_ratio_write", "ratio"}, {"mc.rpq_occupancy", "count"},
        {"mc.wpq_occupancy", "count"},     {"mc.wpq_full_frac", "ratio"},
        {"cpu.lines_read", "count"},       {"cpu.lines_written", "count"},
        {"cpu.lfb_occupancy", "count"},    {"cpu.lfb_latency_ns", "ns"},
        {"cha.n_waiting", "count"},        {"iio.dev_gbps", "GB/s"},
        {"iio.iops", "1/s"},
    };
    for (const std::string d : {"c2m_read", "c2m_write", "p2m_read", "p2m_write"}) {
      l.emplace_back("cha.admission_wait_ns." + d, "ns");
      l.emplace_back("flow." + d + ".gbps", "GB/s");
      l.emplace_back("flow." + d + ".credits", "count");
      l.emplace_back("flow." + d + ".latency_ns", "ns");
    }
    for (const auto& [tenant, stack] : kTcpTenants)
      l.emplace_back(std::string("net.") + stack + ".goodput_gbps", "GB/s");
    for (const char* layer : kLayers) l.emplace_back(std::string("self_ms.") + layer, "ms");
    l.emplace_back("trace.overhead_pct", "%");
    return l;
  }();
  return list;
}

double total(const hostnet::SampleSet& s) { return s.mean() * static_cast<double>(s.size()); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// What one operation did, for the loop to time and count.
struct OpWork {
  std::uint64_t windows = 0;  ///< simulation windows run
  std::uint64_t hosts = 0;    ///< hosts completed (a sweep window is one host)
  double sim_us = 0;          ///< simulated time executed (warmup + measure)
};

/// What one loop (untraced or traced) observed.
struct LoopStats {
  hostnet::SampleSet raw_ms;     ///< wall-clock host time of each operation
  hostnet::SampleSet op_ms;      ///< the same, scaled to the reference speed
  hostnet::SampleSet window_ms;  ///< scaled host time per simulation window
  hostnet::SampleSet cal_ms;     ///< every calibration of the loop
  double sim_us = 0;
  std::uint64_t hosts = 0;
  std::uint64_t attempted = 0;
  std::set<std::uint64_t> failed_ops;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<std::string> notes;     ///< checks that passed, for the log
  Digest digest;                      ///< simulated statistics of the prefix

  void fail(std::uint64_t op, const std::string& why) {
    failed_ops.insert(op);
    if (failures.size() < 8) failures.push_back("op " + std::to_string(op) + ": " + why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Generate the inputs and warm up; run kSetupReps times, each timed.
  virtual void setup(SpanLog& spans) = 0;
  /// Operation `i`: the library calls the loop times. `spans` is on in the
  /// traced loop.
  virtual OpWork run_op(std::uint64_t i, SpanLog& spans) = 0;
  /// Check the outputs of the operation run_op just ran (untimed).
  virtual void check_op(std::uint64_t i, SpanLog& spans, LoopStats& st) = 0;
  /// Operations that make up one round; loops stop only at round ends.
  virtual std::uint64_t round() const { return 1; }
  virtual std::uint64_t min_ops(bool traced) const = 0;
  /// Untimed checks after a loop.
  virtual void final_checks(SpanLog& spans, LoopStats& st) = 0;
  virtual void provenance(std::ostream& os) const = 0;
  /// Per-layer metrics of the traced loop, by name (see per_layer_metrics).
  virtual void layer_metrics(const SpanLog& spans, std::map<std::string, double>& out) const = 0;
};

/// Times `f` between two calibrations: `cal` holds the calibration just
/// before and is advanced to the one just after. Returns the wall-clock and
/// the scaled host time in ms.
template <class F>
std::pair<double, double> timed(F&& f, double& cal, hostnet::SampleSet& cal_log) {
  const std::int64_t t0 = now_ns();
  f();
  const double raw = static_cast<double>(now_ns() - t0) / 1e6;
  const double after = calibration_ms();
  cal_log.add(after);
  const double scaled = raw * kReferenceMs / ((cal + after) / 2);
  cal = after;
  return {raw, scaled};
}

// -- sweeps ---------------------------------------------------------------------

class SweepWorkload : public Workload {
 public:
  SweepWorkload(Quadrant q, std::uint64_t seed) : q_(q), seed_(seed) {}

  const char* name() const override { return q_ == Quadrant::kQ1 ? "q1_sweep" : "q4_sweep"; }
  std::uint64_t round() const override { return kCoreCycle.size(); }
  std::uint64_t min_ops(bool traced) const override {
    return traced ? kPrefixWindows : kMinSweepWindows;
  }

  void setup(SpanLog&) override {
    // Input generation is a pure function of (seed, index), so set-up is
    // the warm-up window: the first window in a process runs ~1.5x slower
    // per event. The 8-core window sizes the allocator for the largest. It
    // is not traced, so the traced spans cover the timed windows only.
    SpanLog off(false);
    const WindowRun r = run_window(sweep_input(q_, seed_, kCoreCycle.size() - 1), off);
    if (!check_laws(r.metrics).empty()) throw std::runtime_error("warm-up window fails the laws");
  }

  OpWork run_op(std::uint64_t i, SpanLog& spans) override {
    {
      // Teardown is part of a window's cost. The previous window's host was
      // kept only so the traced loop could checkpoint it after its operation.
      Scope s(spans, "core.teardown");
      run_.host.reset();
    }
    const WindowInput in = sweep_input(q_, seed_, i);
    run_ = run_window(in, spans);
    return OpWork{1, 1, kSweepWarmupUs + in.measure_us};
  }

  void check_op(std::uint64_t i, SpanLog& spans, LoopStats& st) override {
    const WindowRun& r = run_;
    if (spans.on()) traced_events_ += r.events;

    const std::uint64_t dig = metrics_digest(r.metrics);
    digests_.resize(std::max<std::size_t>(digests_.size(), i + 1));
    digests_[i] = dig;
    if (i < kPrefixWindows) {
      st.digest.add(dig);
      if (prefix_.size() == i) prefix_.push_back(Prefix{r.metrics, r.events_warmup, r.events, r.kicks});
    }
    {
      Scope s(spans, "check.laws");
      if (const std::string why = check_laws(r.metrics); !why.empty()) st.fail(i, why);
      if (r.metrics.mc_lines_read + r.metrics.mc_lines_written == 0)
        st.fail(i, "window served no DRAM lines");
    }
    if (spans.on()) {
      // Checkpoint cost of this warmed host, timed after the operation.
      hc::HostSnapshot snap;
      {
        Scope s(spans, "core.save");
        r.host->save_state(snap);
      }
      Scope s(spans, "core.restore");
      r.host->restore(snap);
    }
  }

  void final_checks(SpanLog& spans, LoopStats& st) override {
    // A sampled window, re-run with the same inputs, must reproduce its
    // digest exactly.
    Scope s(spans, "check.rerun");
    run_.host.reset();  // so the re-run does not add a second host to the peak RSS
    if (digests_.empty()) return;
    const std::uint64_t i = (seed_ * 0x9E3779B97F4A7C15ULL >> 11) % digests_.size();
    SpanLog off(false);
    try {
      const WindowRun r = run_window(sweep_input(q_, seed_, i), off);
      if (metrics_digest(r.metrics) != digests_[i])
        st.fail(i, "re-run of window " + std::to_string(i) + " changed its digest");
      else
        st.notes.push_back("re-run of window " + std::to_string(i) + " reproduced its digest");
    } catch (const std::exception& e) {
      st.fail(i, std::string("re-run threw: ") + e.what());
    }
  }

  void provenance(std::ostream& os) const override {
    os << "window: cascade-lake, "
       << (q_ == Quadrant::kQ1 ? "c2m_read + fio_p2m_write" : "c2m_read_write + fio_p2m_read")
       << ", one cold HostSystem per window, single-threaded; simulated warmup " << kSweepWarmupUs
       << " us + measure";
    for (std::size_t c = 0; c < kCoreCycle.size(); ++c)
      os << (c ? "/" : " ") << kSweepMeasureUs[q_ == Quadrant::kQ4][c];
    os << " us at 1/2/4/8 cores\n";
  }

  void layer_metrics(const SpanLog& spans, std::map<std::string, double>& out) const override {
    // Host time: the traced windows, raw wall clock. Simulated statistics
    // and counts: means per window over the prefix, so they repeat exactly
    // for a seed.
    const double run_ns = spans.sum_ns("core.warmup") + spans.sum_ns("core.measure");
    out["sim.ns_per_event"] = traced_events_ ? run_ns / static_cast<double>(traced_events_) : 0.0;
    out["core.build_ms"] = spans.mean_ns("core.build") / 1e6;
    out["core.warmup_ms"] = spans.mean_ns("core.warmup") / 1e6;
    out["core.measure_ms"] = spans.mean_ns("core.measure") / 1e6;
    out["core.collect_us"] = spans.mean_ns("core.collect") / 1e3;
    out["core.teardown_ms"] = spans.mean_ns("core.teardown") / 1e6;
    out["core.save_us"] = spans.mean_ns("core.save") / 1e3;
    out["core.restore_us"] = spans.mean_ns("core.restore") / 1e3;

    const double n = static_cast<double>(prefix_.size());
    if (n == 0) return;
    double events = 0, measure_events = 0, lines = 0;
    hostnet::mc::Channel::KickStats k;
    std::map<std::string, double> total;
    for (const Prefix& p : prefix_) {
      events += static_cast<double>(p.events);
      measure_events += static_cast<double>(p.events - p.events_warmup);
      lines += static_cast<double>(p.m.mc_lines_read + p.m.mc_lines_written);
      k.scheduled += p.kicks.scheduled;
      k.cancelled += p.kicks.cancelled;
      k.deduped += p.kicks.deduped;
      visit_metrics(p.m, [&](const char* name, const auto& v) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
          total[name] += static_cast<double>(v);
      });
    }
    auto avg = [&](const std::string& name) { return total[name] / n; };
    out["sim.events"] = events / n;
    out["sim.events_per_line"] = lines > 0 ? measure_events / lines : 0.0;
    out["mc.kicks_scheduled"] = static_cast<double>(k.scheduled) / n;
    out["mc.kicks_cancelled"] = static_cast<double>(k.cancelled) / n;
    out["mc.kicks_deduped"] = static_cast<double>(k.deduped) / n;
    out["mc.dead_kick_ratio"] =
        k.scheduled ? static_cast<double>(k.cancelled) / static_cast<double>(k.scheduled) : 0.0;
    out["mc.lines_read"] = avg("mc_lines_read");
    out["mc.lines_written"] = avg("mc_lines_written");
    out["mc.switch_cycles"] = avg("mc_switch_cycles");
    out["mc.row_miss_ratio_read"] = avg("row_miss_ratio_read");
    out["mc.row_miss_ratio_write"] = avg("row_miss_ratio_write");
    out["mc.rpq_occupancy"] = avg("avg_rpq_occupancy");
    out["mc.wpq_occupancy"] = avg("avg_wpq_occupancy");
    out["mc.wpq_full_frac"] = avg("wpq_full_fraction");
    out["cpu.lines_read"] = avg("c2m_lines_read");
    out["cpu.lines_written"] = avg("c2m_lines_written");
    out["cpu.lfb_occupancy"] = avg("lfb_avg_occupancy");
    out["cpu.lfb_latency_ns"] = avg("lfb_latency_ns");
    out["cha.n_waiting"] = avg("n_waiting");
    out["iio.dev_gbps"] = avg("p2m_dev_gbps");
    out["iio.iops"] = avg("p2m_iops");
    for (const std::string d : {"c2m_read", "c2m_write", "p2m_read", "p2m_write"}) {
      out["cha.admission_wait_ns." + d] = avg("cha_admission_wait_ns." + d);
      out["flow." + d + ".gbps"] = avg(d + ".throughput_gbps");
      out["flow." + d + ".credits"] = avg(d + ".credits_in_use");
      out["flow." + d + ".latency_ns"] = avg(d + ".latency_ns");
    }
  }

 private:
  struct Prefix {
    hc::Metrics m;
    std::uint64_t events_warmup = 0;
    std::uint64_t events = 0;
    hostnet::mc::Channel::KickStats kicks;
  };

  Quadrant q_;
  std::uint64_t seed_;
  WindowRun run_;                       ///< the window run_op just ran
  std::vector<std::uint64_t> digests_;  ///< every window's digest, by index
  std::vector<Prefix> prefix_;
  std::uint64_t traced_events_ = 0;  ///< events executed by the traced windows
};

// -- fleet ------------------------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, unsigned threads) : seed_(seed), threads_(threads) {}

  const char* name() const override { return "fleet_fork"; }
  std::uint64_t min_ops(bool) const override { return 3; }

  void setup(SpanLog& spans) override {
    const std::string text = fleet_scenario_text(seed_);
    std::unique_ptr<fl::Scenario> sc;
    {
      Scope s(spans, "fleet.parse");
      sc = std::make_unique<fl::Scenario>(fl::Scenario::parse(text));
    }
    {
      Scope s(spans, "fleet.expand");
      hosts_ = sc->expand();
    }
    fingerprints_.clear();
    for (const fl::HostTemplate& t : sc->templates()) {
      Scope s(spans, "core.fingerprint");
      fingerprints_.insert(
          hc::config_fingerprint(t.host, t.c2m, t.p2m, t.seed, sc->base_options().warmup));
    }
    sc_ = std::move(sc);
    // Warm-up operation: brings up the worker pool and fixes the reference
    // report every timed operation must reproduce.
    const fl::FleetReport r = fl::run_fleet(*sc_, runner_options(hc::SweepMode::kFork));
    reference_report_ = simulated_report(*sc_, r);
    reference_digest_ = fleet_digest(*sc_, r);
  }

  OpWork run_op(std::uint64_t, SpanLog& spans) override {
    {
      Scope s(spans, "fleet.run");
      report_ = fl::run_fleet(*sc_, runner_options(hc::SweepMode::kFork));
    }
    Scope s(spans, "fleet.report");
    text_ = fl::format_report(*sc_, report_);
    return OpWork{fleet_windows(*sc_, hosts_), report_.hosts, fleet_simulated_us(*sc_, hosts_)};
  }

  void check_op(std::uint64_t i, SpanLog& spans, LoopStats& st) override {
    const fl::FleetReport& r = report_;
    if (i == 0) {
      last_ = r;
      st.digest.add(fleet_digest(*sc_, r));
    }

    Scope s(spans, "check.fleet");
    if (text_.empty()) st.fail(i, "empty report");
    if (fleet_digest(*sc_, r) != reference_digest_)
      st.fail(i, "fleet digest differs from the warm-up run");
    const std::uint64_t templates = sc_->templates().size();
    const std::uint64_t per_host = fleet_windows(*sc_, hosts_) / hosts_.size();
    if (r.hosts != hosts_.size()) st.fail(i, "host count");
    if (r.cache.outcome_hits != 0) st.fail(i, "outcome memo hits: replicas did not fork");
    if (r.cache.checkpoint_misses != templates * per_host ||
        r.cache.checkpoint_hits != (r.hosts - templates) * per_host)
      st.fail(i, "checkpoint hits/misses do not match one cold warmup per template");
    if (r.shards <= threads_) st.fail(i, "no more shards than threads");
    if (r.fingerprints != fingerprints_.size()) st.fail(i, "fingerprint count");
    for (std::size_t t = 0; t < r.agg.tenants.size(); ++t) {
      const fl::TenantAggregate& a = r.agg.tenants[t];
      if (a.placements == 0 || !(a.colo_score_sum > 0))
        st.fail(i, "tenant " + sc_->tenants()[t] + " has no positive score");
    }
  }

  void final_checks(SpanLog& spans, LoopStats& st) override {
    // The cold reference path must print the same report byte for byte.
    Scope s(spans, "check.cold");
    try {
      const fl::FleetReport cold = fl::run_fleet(*sc_, runner_options(hc::SweepMode::kCold));
      if (simulated_report(*sc_, cold) != reference_report_)
        st.fail(0, "cold-mode report differs from the forked report");
      else if (fleet_digest(*sc_, cold) != reference_digest_)
        st.fail(0, "cold-mode digest differs from the forked digest");
      else
        st.notes.push_back("cold-mode run_fleet printed the forked report byte for byte");
    } catch (const std::exception& e) {
      st.fail(0, std::string("cold run threw: ") + e.what());
    }
  }

  void provenance(std::ostream& os) const override {
    os << "fleet: " << sc_->templates().size() << " templates on cascade-lake + ice-lake, "
       << hosts_.size() << " hosts (" << kFleetReplicas << " replicas per template), "
       << fleet_windows(*sc_, hosts_) << " windows per run_fleet; simulated warmup "
       << kFleetWarmupUs << " us + measure " << kFleetMeasureUs << " us, jitter "
       << kFleetJitterPct << "%, " << fleet_simulated_us(*sc_, hosts_)
       << " us simulated per run_fleet; " << threads_ << " worker threads\n";
  }

  void layer_metrics(const SpanLog& spans, std::map<std::string, double>& out) const override {
    const auto& c = last_.cache;
    const double windows = static_cast<double>(c.checkpoint_hits + c.checkpoint_misses);
    const double run_s = spans.mean_ns("fleet.run") / 1e9;
    out["core.fingerprint_us"] = spans.mean_ns("core.fingerprint") / 1e3;
    out["core.checkpoint_hits"] = static_cast<double>(c.checkpoint_hits);
    out["core.checkpoint_misses"] = static_cast<double>(c.checkpoint_misses);
    out["core.outcome_hits"] = static_cast<double>(c.outcome_hits);
    out["core.fork_ratio"] = windows > 0 ? static_cast<double>(c.checkpoint_hits) / windows : 0.0;
    out["fleet.parse_ms"] = spans.mean_ns("fleet.parse") / 1e6;
    out["fleet.expand_ms"] = spans.mean_ns("fleet.expand") / 1e6;
    out["fleet.run_s"] = run_s;
    out["fleet.report_ms"] = spans.mean_ns("fleet.report") / 1e6;
    out["fleet.shards"] = static_cast<double>(last_.shards);
    out["fleet.host_s"] = last_.hosts ? run_s * threads_ / static_cast<double>(last_.hosts) : 0.0;
    for (const auto& [tenant, stack] : kTcpTenants)
      for (std::size_t t = 0; t < sc_->tenants().size(); ++t)
        if (sc_->tenants()[t] == tenant && last_.agg.tenants[t].placements)
          out[std::string("net.") + stack + ".goodput_gbps"] =
              last_.agg.tenants[t].colo_score_sum /
              static_cast<double>(last_.agg.tenants[t].placements);
  }

 private:
  fl::RunnerOptions runner_options(hc::SweepMode mode) const {
    fl::RunnerOptions o;
    o.threads = threads_;
    o.mode = mode;
    return o;
  }

  std::uint64_t seed_;
  unsigned threads_;
  std::unique_ptr<fl::Scenario> sc_;
  std::vector<fl::HostInstance> hosts_;
  std::set<std::string> fingerprints_;
  std::string reference_report_;
  std::uint64_t reference_digest_ = 0;
  fl::FleetReport report_;  ///< the report run_op just produced, and its text
  std::string text_;
  fl::FleetReport last_;    ///< operation 0's report
};

// -- command line and loop --------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostnet_perfbench: " << why
            << "\nusage: hostnet_perfbench --workload q1_sweep|q4_sweep|fleet_fork --seed <n> "
               "--seconds <s> --trace 0|1 [--spans-out <path>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--spans-out") o.spans_out = v;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 60) usage("--seconds must be in (0, 60]");
  return o;
}

/// Run operations from index 0 until `seconds` have passed and at least
/// `min_ops` ran, stopping only at round boundaries.
LoopStats run_loop(Workload& w, double seconds, bool traced, SpanLog& spans) {
  LoopStats st;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t i = 0;
  double cal = calibration_ms();
  st.cal_ms.add(cal);
  while (i < w.min_ops(traced) || now_ns() < deadline) {
    for (std::uint64_t k = 0; k < w.round(); ++k, ++i) {
      spans.set_op(i);
      ++st.attempted;
      try {
        OpWork work;
        const auto [raw, scaled] = timed(
            [&] {
              Scope s(spans, "bench.op");
              work = w.run_op(i, spans);
            },
            cal, st.cal_ms);
        st.raw_ms.add(raw);
        st.op_ms.add(scaled);
        st.window_ms.add(scaled / static_cast<double>(work.windows));
        st.sim_us += work.sim_us;
        st.hosts += work.hosts;
        w.check_op(i, spans, st);
      } catch (const std::exception& e) {
        st.fail(i, std::string("threw: ") + e.what());
      }
    }
  }
  w.final_checks(spans, st);
  return st;
}

std::vector<std::string> hostnet_env() {
  std::vector<std::string> out;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "HOSTNET_", 8) == 0) out.emplace_back(*e);
  return out;
}

int run(const Options& opt) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(2u, nproc);
  std::unique_ptr<Workload> w;
  if (opt.workload == "q1_sweep") w = std::make_unique<SweepWorkload>(Quadrant::kQ1, opt.seed);
  else if (opt.workload == "q4_sweep") w = std::make_unique<SweepWorkload>(Quadrant::kQ4, opt.seed);
  else if (opt.workload == "fleet_fork") w = std::make_unique<FleetWorkload>(opt.seed, threads);
  else usage("unknown workload " + opt.workload);

  std::cout << "hostnet_perfbench workload=" << w->name() << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << "\n";
  std::cout << "build: " << PERFBENCH_BUILD_TYPE
#if defined(HOSTNET_CHECKED) && HOSTNET_CHECKED
            << ", HOSTNET_CHECKED (invariant checks on: timings are not comparable)"
#endif
            << ", nproc " << nproc << ", fleet threads " << threads << " (explicit)\n";
  for (const std::string& e : hostnet_env())
    std::cout << "warning: " << e
              << " is set; the benchmark fixes windows, threads and sweep mode itself, so it "
                 "does not apply\n";

  // Set-up, repeated; setup_s is the median of the scaled repetitions.
  hostnet::SampleSet setup_raw, setup_s, setup_cal;
  SpanLog off(false);
  double cal = calibration_ms();
  for (int k = 0; k < kSetupReps; ++k) {
    const auto [raw, scaled] = timed([&] { w->setup(off); }, cal, setup_cal);
    setup_raw.add(raw);
    setup_s.add(scaled);
  }
  w->provenance(std::cout);
  std::cout << "set-up repetitions, raw wall clock (s):";
  for (double v : setup_raw.values()) std::cout << " " << v / 1e3;
  std::cout << "\ncold (first) set-up: " << setup_s.values().front() / 1e3
            << " s scaled; setup_s is the median of all " << kSetupReps << "\n";

  std::vector<Metric> metrics;
  LoopStats base = run_loop(*w, opt.trace ? opt.seconds / 2 : opt.seconds, false, off);
  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed_ops.size();
  std::vector<std::string> failures = base.failures;
  std::vector<std::string> notes = base.notes;
  std::cout << "digest (" << (opt.workload == "fleet_fork" ? "fleet report" : "first 16 windows")
            << ", untraced): " << base.digest.hex() << "\n";
  std::cout << "calibration: median " << base.cal_ms.quantile(0.5) << " ms over " << base.cal_ms.size()
            << " runs (reference " << kReferenceMs << " ms)\n";

  if (!opt.trace) {
    const double op_s = total(base.op_ms) / 1e3;
    metrics.push_back({"sim_us_per_s", base.sim_us / op_s, "us/s"});
    metrics.push_back({"hosts_per_s", static_cast<double>(base.hosts) / op_s, "1/s"});
    metrics.push_back({"window_ms.p50", base.window_ms.quantile(0.5), "ms"});
    metrics.push_back({"window_ms.p90", base.window_ms.quantile(0.9), "ms"});
    metrics.push_back({"rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"setup_s", setup_s.quantile(0.5) / 1e3, "s"});
    std::cout << "samples: " << base.window_ms.size() << " "
              << (opt.workload == "fleet_fork" ? "run_fleet operations (window_ms is each one's time "
                                                 "per window)"
                                               : "windows")
              << "; raw wall clock: " << total(base.raw_ms) / 1e3 << " s of operations, "
              << base.sim_us / (total(base.raw_ms) / 1e3) << " simulated us/s, median operation "
              << base.raw_ms.quantile(0.5) << " ms\n";
  } else {
    SpanLog spans(true);
    spans.set_op(0);
    w->setup(spans);
    LoopStats traced = run_loop(*w, opt.seconds / 2, true, spans);
    attempted += traced.attempted;
    failed += traced.failed_ops.size();
    failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
    std::cout << "digest (traced): " << traced.digest.hex() << "\n";
    if (traced.digest.value() != base.digest.value()) {
      failures.push_back("traced digest differs from untraced digest");
      ++failed;
    }
    // Overhead over the operations both loops ran, in scaled time.
    const std::size_t common = std::min(base.op_ms.size(), traced.op_ms.size());
    double base_ms = 0, traced_ms = 0;
    for (std::size_t i = 0; i < common; ++i) {
      base_ms += base.op_ms.values()[i];
      traced_ms += traced.op_ms.values()[i];
    }
    const double overhead_pct = base_ms > 0 ? (traced_ms / base_ms - 1) * 100 : 0;

    std::map<std::string, double> layer;
    w->layer_metrics(spans, layer);
    const std::map<std::string, double> self = spans.self_time_by_layer();
    const double ops = static_cast<double>(traced.op_ms.size());
    std::cout << "self time per layer, raw wall clock (traced loop: " << traced.op_ms.size()
              << " operations, " << spans.spans().size() << " spans):\n";
    for (const char* l : kLayers) {
      const double ns = self.count(l) ? self.at(l) : 0.0;
      std::cout << "  " << l << ": " << ns / 1e9 << " s, " << ns / 1e6 / ops << " ms/op\n";
      layer[std::string("self_ms.") + l] = ns / 1e6 / ops;
    }
    std::cout << "tracing overhead: " << overhead_pct << " % over the " << common
              << " operations both loops ran\n";
    layer["trace.overhead_pct"] = overhead_pct;
    for (const auto& [name, unit] : per_layer_metrics()) {
      metrics.push_back({name, layer.count(name) ? layer.at(name) : 0.0, unit});
      layer.erase(name);
    }
    if (!layer.empty()) throw std::logic_error("undeclared per-layer metric " + layer.begin()->first);
    if (!opt.spans_out.empty()) {
      std::ofstream os(opt.spans_out);
      spans.write_jsonl(os);
      std::cout << "spans written to " << opt.spans_out << "\n";
    }
  }

  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "failed_frac: " << failed_frac << " (" << failed << " of " << attempted
            << " operations)\n";
  for (const std::string& f : failures) std::cout << "failure: " << f << "\n";
  for (const std::string& n : notes) std::cout << "check: " << n << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  hostnet::net::install_tcp_factory();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hostnet_perfbench: " << e.what() << "\n";
    return 1;
  }
}
