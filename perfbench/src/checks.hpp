// Output checks and the simulated-statistics digest.
//
// The simulator is deterministic, so every simulated statistic is a pure
// function of the generated inputs. The digest hashes all of them -- every
// Metrics field and the fleet report -- and none of the host-implementation
// counts (events executed, MC kick bookkeeping, sweep-cache hits), which a
// legitimate speed-up may change. Two builds that print the same digest for
// the same seed simulated the same thing.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/stats.hpp"
#include "core/metrics.hpp"
#include "fleet/runner.hpp"

namespace perfbench {

/// FNV-1a (64-bit) over values appended one by one in their object
/// representation; never over whole structs, whose padding is indeterminate.
class Digest {
 public:
  template <class T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    unsigned char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    add_bytes(buf, sizeof(T));
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(const hostnet::SampleSet& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add(s.mean());
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) add(s.quantile(q));
  }
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Visit every leaf of Metrics as f(name, field&): scalars, each element of
/// the per-class arrays, each field of the four domain observations, and the
/// bank-deviation sample set. selftest pins that this covers every member.
template <class M, class F>
void visit_metrics(M& m, F&& f) {
  static constexpr const char* kClass[] = {"c2m_read", "c2m_write", "p2m_read", "p2m_write"};
  auto domain = [&](const char* name, auto& o) {
    const std::string n = name;
    f((n + ".credits_in_use").c_str(), o.credits_in_use);
    f((n + ".max_credits_used").c_str(), o.max_credits_used);
    f((n + ".latency_ns").c_str(), o.latency_ns);
    f((n + ".throughput_gbps").c_str(), o.throughput_gbps);
  };
  f("window_ns", m.window_ns);
  f("channels", m.channels);
  f("c2m_cores", m.c2m_cores);
  for (std::size_t i = 0; i < m.mem_gbps.size(); ++i)
    f((std::string("mem_gbps.") + kClass[i]).c_str(), m.mem_gbps[i]);
  domain("c2m_read", m.c2m_read);
  domain("c2m_write", m.c2m_write);
  domain("p2m_read", m.p2m_read);
  domain("p2m_write", m.p2m_write);
  f("lfb_latency_ns", m.lfb_latency_ns);
  f("lfb_littles_latency_ns", m.lfb_littles_latency_ns);
  f("lfb_avg_occupancy", m.lfb_avg_occupancy);
  f("lfb_max_occupancy", m.lfb_max_occupancy);
  f("cha_dram_read_latency_c2m_ns", m.cha_dram_read_latency_c2m_ns);
  f("cha_dram_read_latency_p2m_ns", m.cha_dram_read_latency_p2m_ns);
  f("cha_mc_write_latency_ns", m.cha_mc_write_latency_ns);
  f("p2m_reads_in_flight_at_cha", m.p2m_reads_in_flight_at_cha);
  f("p2m_reads_in_flight_at_cha_max", m.p2m_reads_in_flight_at_cha_max);
  f("n_waiting", m.n_waiting);
  for (std::size_t i = 0; i < m.cha_admission_wait_ns.size(); ++i)
    f((std::string("cha_admission_wait_ns.") + kClass[i]).c_str(), m.cha_admission_wait_ns[i]);
  f("avg_rpq_occupancy", m.avg_rpq_occupancy);
  f("avg_wpq_occupancy", m.avg_wpq_occupancy);
  f("wpq_full_fraction", m.wpq_full_fraction);
  f("row_miss_ratio_read", m.row_miss_ratio_read);
  f("row_miss_ratio_write", m.row_miss_ratio_write);
  f("mc_lines_read", m.mc_lines_read);
  f("mc_lines_written", m.mc_lines_written);
  f("mc_switch_cycles", m.mc_switch_cycles);
  f("mc_act_read", m.mc_act_read);
  f("mc_act_write", m.mc_act_write);
  f("mc_pre_conflict_read", m.mc_pre_conflict_read);
  f("mc_pre_conflict_write", m.mc_pre_conflict_write);
  f("bank_deviation", m.bank_deviation);
  f("c2m_lines_read", m.c2m_lines_read);
  f("c2m_lines_written", m.c2m_lines_written);
  f("c2m_app_gbps", m.c2m_app_gbps);
  f("queries_per_sec", m.queries_per_sec);
  f("p2m_dev_gbps", m.p2m_dev_gbps);
  f("p2m_iops", m.p2m_iops);
}

/// Digest of every simulated statistic of one window.
std::uint64_t metrics_digest(const hostnet::core::Metrics& m);

/// format_report without its sweep-cache line: the cache counters describe
/// how the fork engine executed the fleet (zero in cold mode), not what was
/// simulated.
std::string simulated_report(const hostnet::fleet::Scenario& sc,
                             const hostnet::fleet::FleetReport& r);

/// Digest of every simulated statistic of a fleet run: the report text and
/// the raw aggregate sums behind it.
std::uint64_t fleet_digest(const hostnet::fleet::Scenario& sc,
                           const hostnet::fleet::FleetReport& r);

// -- the paper's laws as output checks ---------------------------------------
//
// For each domain that carried traffic, with N the time-averaged credits in
// use (summed over the domain's pools), L the mean credit-hold latency and T
// the achieved throughput:
//   domain law   T <= N * 64 / L * (1 + kLawSlack)
//   Little's law |T * L / 64 - N| <= kLittleTol * N   (P2M domains)
// The C2M throughputs count core-completed lines while the LFB pools also
// hold write-back phases, so for C2M only the inequality applies. The
// slack covers window-boundary effects: requests in flight at the window
// edges are counted in N but not in T.
inline constexpr double kLawSlack = 0.10;
inline constexpr double kLittleTol = 0.10;

/// Empty when every domain of `m` obeys the laws, else the first violation.
std::string check_laws(const hostnet::core::Metrics& m);

}  // namespace perfbench
