// Tests for the parallel sweep engine: the worker pool itself
// (core/parallel.hpp) and the experiment executor built on it (outcomes in
// plan order, bit-identical to running each window alone, identical windows
// simulated once).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

RunOptions fast_options() {
  RunOptions o;
  o.warmup = us(20);
  o.measure = us(80);
  o.seed = 7;
  return o;
}

/// Exact (bitwise) equality of the metrics the figures are built from.
/// Doubles are compared with EXPECT_EQ deliberately: the parallel engine
/// promises bit-identical results, not approximately-equal ones.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.window_ns, b.window_ns);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c) {
    EXPECT_EQ(a.mem_gbps[static_cast<size_t>(c)], b.mem_gbps[static_cast<size_t>(c)]);
    EXPECT_EQ(a.cha_admission_wait_ns[static_cast<size_t>(c)],
              b.cha_admission_wait_ns[static_cast<size_t>(c)]);
  }
  EXPECT_EQ(a.lfb_latency_ns, b.lfb_latency_ns);
  EXPECT_EQ(a.lfb_avg_occupancy, b.lfb_avg_occupancy);
  EXPECT_EQ(a.lfb_max_occupancy, b.lfb_max_occupancy);
  EXPECT_EQ(a.cha_dram_read_latency_c2m_ns, b.cha_dram_read_latency_c2m_ns);
  EXPECT_EQ(a.cha_dram_read_latency_p2m_ns, b.cha_dram_read_latency_p2m_ns);
  EXPECT_EQ(a.cha_mc_write_latency_ns, b.cha_mc_write_latency_ns);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha_max, b.p2m_reads_in_flight_at_cha_max);
  EXPECT_EQ(a.avg_rpq_occupancy, b.avg_rpq_occupancy);
  EXPECT_EQ(a.avg_wpq_occupancy, b.avg_wpq_occupancy);
  EXPECT_EQ(a.wpq_full_fraction, b.wpq_full_fraction);
  EXPECT_EQ(a.row_miss_ratio_read, b.row_miss_ratio_read);
  EXPECT_EQ(a.row_miss_ratio_write, b.row_miss_ratio_write);
  EXPECT_EQ(a.mc_lines_read, b.mc_lines_read);
  EXPECT_EQ(a.mc_lines_written, b.mc_lines_written);
  EXPECT_EQ(a.mc_switch_cycles, b.mc_switch_cycles);
  EXPECT_EQ(a.c2m_lines_read, b.c2m_lines_read);
  EXPECT_EQ(a.c2m_lines_written, b.c2m_lines_written);
  EXPECT_EQ(a.c2m_app_gbps, b.c2m_app_gbps);
  EXPECT_EQ(a.queries_per_sec, b.queries_per_sec);
  EXPECT_EQ(a.p2m_dev_gbps, b.p2m_dev_gbps);
  EXPECT_EQ(a.p2m_iops, b.p2m_iops);
}

void expect_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.c2m_score, b.c2m_score);
  EXPECT_EQ(a.p2m_score, b.p2m_score);
  EXPECT_EQ(a.transport, b.transport);
  expect_identical(a.metrics, b.metrics);
}

void expect_identical(const ColocationOutcome& a, const ColocationOutcome& b) {
  expect_identical(a.iso_c2m, b.iso_c2m);
  expect_identical(a.iso_p2m, b.iso_p2m);
  expect_identical(a.colo, b.colo);
}

/// `w` simulated on its own, cold: the direct-run reference for a window.
RunOutcome run_alone(const Window& w) {
  Plan plan;
  plan.add(w.host, w.c2m, w.p2m, w.opt);
  return execute(plan, {1, SweepMode::kCold})[0];
}

TEST(RunParallel, ThreadsEnvOverride) {
  ASSERT_EQ(setenv("HOSTNET_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel_threads(), 3u);
  ASSERT_EQ(unsetenv("HOSTNET_THREADS"), 0);
  EXPECT_GE(parallel_threads(), 1u);
}

TEST(RunParallel, ParseThreadCountAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("16"), 16u);
  EXPECT_EQ(parse_thread_count("4294967295"), 4294967295u);
  for (const char* bad : {"", "0", "-1", "+2", " 2", "2 ", "2x", "abc", "1.5", "4294967296"})
    EXPECT_EQ(parse_thread_count(bad), 0u) << "'" << bad << "'";
}

TEST(RunParallel, MalformedThreadsEnvIsRejected) {
  // atol() used to read "abc" as hardware concurrency and "2x" as 2.
  for (const char* bad : {"abc", "2x", "-1", "0", ""}) {
    ASSERT_EQ(setenv("HOSTNET_THREADS", bad, 1), 0);
    try {
      parallel_threads();
      ADD_FAILURE() << "HOSTNET_THREADS='" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("HOSTNET_THREADS"), std::string::npos) << e.what();
    }
    // A batch on the default thread count resolves it through the same check.
    EXPECT_THROW(run_parallel(2, [](std::size_t) {}), std::invalid_argument) << bad;
  }
  ASSERT_EQ(unsetenv("HOSTNET_THREADS"), 0);
}

TEST(RunParallel, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  run_parallel(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunParallel, PreservesInputOrderWithMoreJobsThanThreads) {
  // 64 jobs on 4 threads; even jobs are slowed so completion order differs
  // from input order. results[i] must still correspond to job i.
  std::vector<int> results(64, -1);
  run_parallel(
      results.size(),
      [&](std::size_t i) {
        if (i % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        results[i] = static_cast<int>(i) * 3;
      },
      4);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], static_cast<int>(i) * 3);
}

TEST(RunParallel, ThrowingJobPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      run_parallel(
          32,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);

  // The pool is per-call: a subsequent run works normally.
  std::atomic<int> n{0};
  run_parallel(8, [&](std::size_t) { ++n; }, 4);
  EXPECT_EQ(n.load(), 8);
}

TEST(ParallelSweep, TwoQuadrantColocationBitIdenticalToSerial) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec read_spec;
  read_spec.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  read_spec.cores = 2;
  C2MSpec rw_spec;
  rw_spec.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  rw_spec.cores = 2;
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());

  Plan plan;
  const ColocationRef read = plan.colocation(host, read_spec, p2m, opt);
  const ColocationRef rw = plan.colocation(host, rw_spec, p2m, opt);
  const Outcomes par = execute(plan, {4, SweepMode::kCold});
  const Outcomes serial = execute(plan, {1, SweepMode::kCold});
  expect_identical(par[read], serial[read]);
  expect_identical(par[rw], serial[rw]);
  // The two colocations repeat the same iso-P2M window.
  expect_identical(par[read].iso_p2m, par[rw].iso_p2m);
}

TEST(ParallelSweep, CoreSweepBitIdenticalAndInInputOrder) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3};

  Plan plan;
  const std::vector<ColocationRef> sweep = plan.core_sweep(host, c2m, p2m, cores, opt);
  ASSERT_EQ(plan.size(), 1 + 2 * cores.size());  // one shared iso-P2M window
  const Outcomes par = execute(plan, {4, SweepMode::kFork});
  ASSERT_EQ(par.windows.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i)
    expect_identical(par[i], run_alone(plan.windows()[i]));
  for (std::size_t i = 0; i < cores.size(); ++i) {
    EXPECT_EQ(par[sweep[i]].colo.metrics.c2m_cores, cores[i]);
    EXPECT_EQ(sweep[i].iso_p2m, sweep.front().iso_p2m);
  }
}

TEST(ParallelSweep, WorkloadPointsMatchDirectRuns) {
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();

  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 1;
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_read(host, workloads::p2m_region());

  Plan plan;
  plan.add(host, c2m, std::nullopt, opt);
  plan.add(host, std::nullopt, p2m, opt);
  plan.add(host, c2m, p2m, opt);
  const Outcomes par = execute(plan, {3, SweepMode::kFork});
  ASSERT_EQ(par.windows.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i)
    expect_identical(par[i], run_alone(plan.windows()[i]));
}

TEST(Executor, OutcomesInPlanOrder) {
  // Core counts in scrambled order, many more windows than threads: each
  // outcome must land at its own window's index.
  const HostConfig host = cascade_lake();
  RunOptions opt = fast_options();
  opt.measure = us(30);
  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  const std::vector<std::uint32_t> cores{3, 1, 4, 1, 5, 2, 6, 2, 3, 5};
  Plan plan;
  for (std::uint32_t n : cores) {
    c2m.cores = n;
    plan.add(host, c2m, std::nullopt, opt);
  }
  const Outcomes out = execute(plan, {4, SweepMode::kCold});
  ASSERT_EQ(out.windows.size(), cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i)
    EXPECT_EQ(out[i].metrics.c2m_cores, cores[i]) << "window " << i;
}

TEST(Executor, SingleSidedColocationIsOneWindow) {
  const HostConfig host = cascade_lake();
  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  Plan plan;
  const ColocationRef ref = plan.colocation(host, c2m, std::nullopt, fast_options());
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(ref.colo, ref.iso_c2m);
  EXPECT_EQ(ref.iso_p2m, ColocationRef::kNone);
  const ColocationOutcome o = execute(plan)[ref];
  EXPECT_EQ(o.c2m_degradation(), 1.0);
  EXPECT_EQ(o.regime(), Regime::kNone);
  EXPECT_EQ(o.iso_p2m.p2m_score, 0.0);
}

}  // namespace
}  // namespace hostnet::core
