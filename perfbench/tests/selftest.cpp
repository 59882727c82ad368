// Tests of the benchmark's own checks: the digest sees every simulated
// statistic, the law checks reject violating observations, and the
// generated fleet really forks.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "checks.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hostnet::core::DomainObservation;
using hostnet::core::Metrics;

// Aggregate arity: the largest N for which T{x1..xN} compiles, with each x
// convertible to any member type.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class T, class... A>
constexpr std::size_t arity() {
  if constexpr (requires { T{A{}..., AnyField{}}; })
    return arity<T, A..., AnyField>();
  else
    return sizeof...(A);
}

/// Metrics of the sweep window with `cores` cores (an index of the cycle).
Metrics window_metrics(Quadrant q, std::uint32_t cores) {
  std::uint64_t i = 0;
  while (kCoreCycle[i] != cores) ++i;
  SpanLog off(false);
  return run_window(sweep_input(q, 11, i), off).metrics;
}

std::size_t leaves(const Metrics& m) {
  std::size_t n = 0;
  visit_metrics(m, [&](const char*, const auto&) { ++n; });
  return n;
}

TEST(Digest, VisitsEveryMetricsField) {
  // A new Metrics or DomainObservation member changes these counts: add it
  // to visit_metrics() so the digest covers it, then update the numbers.
  EXPECT_EQ(arity<Metrics>(), 38u);
  EXPECT_EQ(arity<DomainObservation>(), 4u);
  // 31 scalars + 2 per-class arrays of 4 + 4 observations of 4 + 1 sample set.
  EXPECT_EQ(leaves(Metrics{}), 31u + 8u + 16u + 1u);
}

TEST(Digest, PerturbingAnyFieldChangesIt) {
  const Metrics base = window_metrics(Quadrant::kQ4, 2);
  const std::uint64_t d0 = metrics_digest(base);
  EXPECT_EQ(d0, metrics_digest(window_metrics(Quadrant::kQ4, 2)));
  const std::size_t n = leaves(base);
  for (std::size_t target = 0; target < n; ++target) {
    Metrics m = base;
    std::size_t k = 0;
    std::string name;
    visit_metrics(m, [&](const char* field, auto& v) {
      if (k++ != target) return;
      name = field;
      if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
        v = v + 1;
      else
        v.add(1.0);
    });
    EXPECT_NE(metrics_digest(m), d0) << "perturbing " << name << " left the digest unchanged";
  }
}

TEST(Laws, RealWindowsPass) {
  for (Quadrant q : {Quadrant::kQ1, Quadrant::kQ4})
    for (std::uint32_t cores : kCoreCycle)
      EXPECT_EQ(check_laws(window_metrics(q, cores)), "") << cores << " cores";
}

TEST(Laws, ViolatingObservationFails) {
  const Metrics base = window_metrics(Quadrant::kQ1, 4);
  ASSERT_EQ(check_laws(base), "");

  Metrics fast = base;  // more throughput than the credits allow
  fast.p2m_write.throughput_gbps *= 1.5;
  EXPECT_NE(check_laws(fast), "");

  Metrics c2m = base;  // the per-core LFB occupancy scales by the core count
  c2m.c2m_read.throughput_gbps *= 1.5;
  EXPECT_NE(check_laws(c2m), "");

  Metrics idle = base;  // occupancy far above what Little's law implies
  idle.p2m_write.credits_in_use *= 2;
  EXPECT_NE(check_laws(idle), "");

  Metrics nolat = base;  // traffic without a latency
  nolat.p2m_write.latency_ns = 0;
  EXPECT_NE(check_laws(nolat), "");
}

TEST(Inputs, SameSeedSameInputs) {
  EXPECT_EQ(fleet_scenario_text(5), fleet_scenario_text(5));
  EXPECT_NE(fleet_scenario_text(5), fleet_scenario_text(6));
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sweep_input(Quadrant::kQ1, 5, i).host_seed, sweep_input(Quadrant::kQ1, 5, i).host_seed);
    EXPECT_EQ(sweep_input(Quadrant::kQ1, 5, i).cores, kCoreCycle[i % 4]);
  }
  EXPECT_NE(sweep_input(Quadrant::kQ1, 5, 0).host_seed, sweep_input(Quadrant::kQ1, 6, 0).host_seed);
}

TEST(Fleet, GeneratedScenarioForksEveryReplica) {
  namespace fl = hostnet::fleet;
  const fl::Scenario sc = fl::Scenario::parse(fleet_scenario_text(3));
  // The scenario fixes its own window, whatever HOSTNET_* says.
  EXPECT_EQ(sc.base_options().warmup, hostnet::us(kFleetWarmupUs));
  EXPECT_EQ(sc.base_options().measure, hostnet::us(kFleetMeasureUs));
  fl::RunnerOptions opt;
  opt.threads = 2;
  const fl::FleetReport r = fl::run_fleet(sc, opt);
  EXPECT_EQ(r.cache.outcome_hits, 0u);
  EXPECT_GT(r.cache.checkpoint_hits, 0u);
  EXPECT_GT(r.shards, opt.threads);
  const auto hosts = sc.expand();
  EXPECT_EQ(r.cache.checkpoint_hits + r.cache.checkpoint_misses, fleet_windows(sc, hosts));

  // The cold reference path reports the same simulated results.
  opt.mode = hostnet::core::SweepMode::kCold;
  const fl::FleetReport cold = fl::run_fleet(sc, opt);
  EXPECT_EQ(simulated_report(sc, cold), simulated_report(sc, r));
  EXPECT_EQ(fleet_digest(sc, cold), fleet_digest(sc, r));
  EXPECT_EQ(simulated_report(sc, r).find("sweep-cache"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
