// Tests for the checkpoint/fork engine (DESIGN.md section 4e): snapshot /
// restore replay identity, the same-host contract, owned NICs, receivers
// and hostCC,
// collect() as a pure read, restored and forked windows bit-identical to
// cold runs across presets, and the executor's cold/fork x thread-count
// identity and reuse counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "core/hostcc.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::core {
namespace {

/// Exact (bitwise) equality of everything a figure is built from. Doubles
/// compared with EXPECT_EQ deliberately: the checkpoint engine promises
/// bit-identical results, not approximately-equal ones.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.window_ns, b.window_ns);
  EXPECT_EQ(a.channels, b.channels);
  EXPECT_EQ(a.c2m_cores, b.c2m_cores);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c) {
    EXPECT_EQ(a.mem_gbps[static_cast<size_t>(c)], b.mem_gbps[static_cast<size_t>(c)]);
    EXPECT_EQ(a.cha_admission_wait_ns[static_cast<size_t>(c)],
              b.cha_admission_wait_ns[static_cast<size_t>(c)]);
  }
  EXPECT_EQ(a.lfb_latency_ns, b.lfb_latency_ns);
  EXPECT_EQ(a.lfb_littles_latency_ns, b.lfb_littles_latency_ns);
  EXPECT_EQ(a.lfb_avg_occupancy, b.lfb_avg_occupancy);
  EXPECT_EQ(a.lfb_max_occupancy, b.lfb_max_occupancy);
  EXPECT_EQ(a.cha_dram_read_latency_c2m_ns, b.cha_dram_read_latency_c2m_ns);
  EXPECT_EQ(a.cha_dram_read_latency_p2m_ns, b.cha_dram_read_latency_p2m_ns);
  EXPECT_EQ(a.cha_mc_write_latency_ns, b.cha_mc_write_latency_ns);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha, b.p2m_reads_in_flight_at_cha);
  EXPECT_EQ(a.p2m_reads_in_flight_at_cha_max, b.p2m_reads_in_flight_at_cha_max);
  EXPECT_EQ(a.n_waiting, b.n_waiting);
  EXPECT_EQ(a.avg_rpq_occupancy, b.avg_rpq_occupancy);
  EXPECT_EQ(a.avg_wpq_occupancy, b.avg_wpq_occupancy);
  EXPECT_EQ(a.wpq_full_fraction, b.wpq_full_fraction);
  EXPECT_EQ(a.row_miss_ratio_read, b.row_miss_ratio_read);
  EXPECT_EQ(a.row_miss_ratio_write, b.row_miss_ratio_write);
  EXPECT_EQ(a.mc_lines_read, b.mc_lines_read);
  EXPECT_EQ(a.mc_lines_written, b.mc_lines_written);
  EXPECT_EQ(a.mc_switch_cycles, b.mc_switch_cycles);
  EXPECT_EQ(a.mc_act_read, b.mc_act_read);
  EXPECT_EQ(a.mc_act_write, b.mc_act_write);
  EXPECT_EQ(a.mc_pre_conflict_read, b.mc_pre_conflict_read);
  EXPECT_EQ(a.mc_pre_conflict_write, b.mc_pre_conflict_write);
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
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.hostcc_throttle, b.hostcc_throttle);
  expect_identical(a.metrics, b.metrics);
}

/// Whole-host state equality: every component's State, the owned
/// components' included, and the pending events (the owner stamp is not
/// compared).
void expect_same_state(const HostSnapshot& a, const HostSnapshot& b) { EXPECT_TRUE(a == b); }

/// The credit-ledger balances of every flow-control pool in the registry.
std::vector<std::uint32_t> ledger_balances(HostSystem& host) {
  std::vector<std::uint32_t> v;
  for (const auto& e : host.domains().entries()) v.push_back(e.pool->in_use());
  return v;
}

/// One replay of `extra` past a checkpoint: metrics, event trace summary
/// (event count + final clock), and credit balances at the end.
struct Replay {
  Metrics metrics;
  std::uint64_t executed = 0;
  Tick end = 0;
  std::vector<std::uint32_t> balances;
  HostSnapshot end_state;
};

Replay replay(HostSystem& host, Tick extra) {
  Replay r;
  host.run_more(extra);
  r.metrics = host.collect();
  r.executed = host.sim().events_executed();
  r.end = host.sim().now();
  r.balances = ledger_balances(host);
  host.save_state(r.end_state);
  return r;
}

// -- snapshot / restore ------------------------------------------------------

TEST(Checkpoint, RestoreReplaysIdenticalWindow) {
  // Randomized property: snapshot at the quiesce point, run N ticks, then
  // restore and re-run the same N ticks twice. Every replay must produce
  // the identical event trace (count + clock + full end-state snapshot),
  // metrics, and credit-ledger balances. Under HOSTNET_CHECKED, restore()
  // additionally audits the restored event queue event-by-event and
  // re-verifies host invariants.
  Rng rng(20240808);
  for (int trial = 0; trial < 4; ++trial) {
    const HostConfig hc = cascade_lake();
    HostSystem host(hc, /*seed=*/rng.next() % 1024 + 1);
    const auto n_cores = static_cast<std::uint32_t>(rng.next() % 3 + 1);
    for (std::uint32_t i = 0; i < n_cores; ++i) {
      host.add_core(rng.chance(0.5)
                        ? workloads::c2m_read(workloads::c2m_core_region(i))
                        : workloads::c2m_read_write(workloads::c2m_core_region(i)));
    }
    if (rng.chance(0.7))
      host.add_storage(rng.chance(0.5) ? workloads::fio_p2m_write(hc, workloads::p2m_region())
                                       : workloads::fio_p2m_read(hc, workloads::p2m_region()));

    const Tick warmup = us(10 + rng.next() % 40);
    const Tick extra = us(20 + rng.next() % 80);
    host.run(warmup, 0);  // run_until drains every event at ticks <= warmup
    const HostSnapshot checkpoint = host.snapshot();

    const Replay a = replay(host, extra);
    host.restore(checkpoint);
    const Replay b = replay(host, extra);
    host.restore(checkpoint);
    const Replay c = replay(host, extra);

    for (const Replay* r : {&b, &c}) {
      SCOPED_TRACE(trial);
      EXPECT_EQ(a.executed, r->executed);
      EXPECT_EQ(a.end, r->end);
      EXPECT_EQ(a.balances, r->balances);
      expect_same_state(a.end_state, r->end_state);
      expect_identical(a.metrics, r->metrics);
    }
  }
}

TEST(Checkpoint, ForkWithFusedWakeUpPendingMatchesCold) {
  // A memory channel's next wake-up can ride a pending write completion
  // instead of its own calendar event (Channel::State::fused_kick_at). Save
  // at a quiesce point where one is pending: the forked replay must end in
  // the same whole-host state as the uninterrupted (cold) run.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, /*seed=*/17);
  for (std::uint32_t i = 0; i < 2; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(20), 0);
  auto fused_pending = [](const HostSnapshot& s) {
    for (const auto& ch : s.mc_.channels_)
      if (ch.st_.fused_kick_at != mc::Channel::kNever) return true;
    return false;
  };
  HostSnapshot checkpoint = host.snapshot();
  for (int step = 0; step < 100000 && !fused_pending(checkpoint); ++step) {
    host.run_more(ns(1));
    host.save_state(checkpoint);
  }
  ASSERT_TRUE(fused_pending(checkpoint));

  const Replay cold = replay(host, us(30));
  host.restore(checkpoint);
  const Replay fork = replay(host, us(30));
  EXPECT_EQ(cold.executed, fork.executed);
  EXPECT_EQ(cold.end, fork.end);
  EXPECT_EQ(cold.balances, fork.balances);
  expect_same_state(cold.end_state, fork.end_state);
  expect_identical(cold.metrics, fork.metrics);
}

TEST(HostSystem, CollectIsAPureRead) {
  // The fork engine reads each shorter window on its way to a job's longest
  // one, so reading must not move the run behind it: the whole host state
  // is the same before and after collect() (its occupancy integrals
  // included), and a second read returns the same metrics.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, /*seed=*/5);
  for (std::uint32_t i = 0; i < 2; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(20), us(30));
  const HostSnapshot before = host.snapshot();
  const Metrics first = host.collect();
  const HostSnapshot after = host.snapshot();
  expect_same_state(before, after);
  expect_identical(first, host.collect());
  EXPECT_GT(first.n_waiting + first.avg_wpq_occupancy, 0.0);  // integrals were live
}

TEST(Checkpoint, RestoreIntoDifferentHostThrows) {
  // Snapshots carry raw pointers into the producing host (event closures'
  // `this` captures, CreditWaiter*), so cross-host restore must be refused
  // even between identically-built hosts.
  const HostConfig hc = cascade_lake();
  HostSystem a(hc, 7);
  HostSystem b(hc, 7);
  a.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  b.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  a.run(us(20), 0);
  b.run(us(20), 0);
  const HostSnapshot snap = a.snapshot();
  EXPECT_THROW(b.restore(snap), std::logic_error);
  a.restore(snap);  // same host: fine
}

TEST(Checkpoint, HostccControllerRoundTrips) {
  // The host owns hostCC like every component: its throttle loop replays
  // identically from a checkpoint, so a throttled host is forkable.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, 5);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  hostcc::HostccConfig ccfg;
  ccfg.target_p2m_latency_ns = 100;  // throttles from the first sample on
  const hostcc::HostCongestionController& cc = host.add_hostcc(ccfg);
  host.run(us(50), 0);
  const HostSnapshot checkpoint = host.snapshot();

  host.run_more(us(100));
  const Metrics m1 = host.collect();
  const double throttle1 = cc.avg_throttle(host.sim().now());
  const HostSnapshot end1 = host.snapshot();

  host.restore(checkpoint);
  host.run_more(us(100));
  expect_identical(m1, host.collect());
  EXPECT_EQ(throttle1, cc.avg_throttle(host.sim().now()));
  EXPECT_GT(throttle1, 0.0);
  const HostSnapshot end2 = host.snapshot();
  EXPECT_EQ(end1.hostcc_.size(), 1u);
  expect_same_state(end1, end2);
}

TEST(Checkpoint, AttachedExternalStateIsPartOfTheHostSnapshot) {
  // An owned component's State (hostCC's) is compared and restored with the
  // host's own: editing it in one of two equal snapshots makes them
  // unequal, and a restore hands the edit to the component.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, 5);
  host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(0)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  hostcc::HostccConfig ccfg;
  ccfg.target_p2m_latency_ns = 100;
  host.add_hostcc(ccfg);
  host.run(us(20), 0);
  const HostSnapshot a = host.snapshot();
  HostSnapshot b = host.snapshot();
  EXPECT_TRUE(a == b);
  b.hostcc_[0].st_.throttle += 0.25;
  EXPECT_FALSE(a == b);
  host.restore(b);
  EXPECT_TRUE(host.snapshot() == b);
  host.restore(a);
  EXPECT_TRUE(host.snapshot() == a);
}

TEST(Checkpoint, DctcpReceiverRoundTrips) {
  // The host owns the TcpReceiver: the NIC, copy cores, and congestion
  // state must all replay identically from a checkpoint.
  const HostConfig hc = cascade_lake();
  HostSystem host(hc, 3);
  const net::TcpReceiver& rx = host.add_tcp_receiver(net::TcpConfig{});
  host.run(us(200), 0);
  const HostSnapshot checkpoint = host.snapshot();

  host.run_more(us(400));
  const Metrics m1 = host.collect();
  const double goodput1 = rx.goodput_gbps(host.sim().now());
  const std::uint64_t executed1 = host.sim().events_executed();
  const HostSnapshot end1 = host.snapshot();

  host.restore(checkpoint);
  host.run_more(us(400));
  const Metrics m2 = host.collect();
  EXPECT_EQ(goodput1, rx.goodput_gbps(host.sim().now()));
  EXPECT_EQ(executed1, host.sim().events_executed());
  expect_identical(m1, m2);
  EXPECT_GT(goodput1, 0.0);
  // The whole end state, the receiver's (NIC, copy cores, engine and
  // congestion state) included.
  const HostSnapshot end2 = host.snapshot();
  EXPECT_EQ(end1.tcp_receivers_.size(), 1u);
  expect_same_state(end1, end2);
}

// -- fork-from-checkpoint windows --------------------------------------------

RunOptions fast_options() {
  RunOptions o;
  o.warmup = us(30);
  o.measure = us(100);
  o.seed = 7;
  return o;
}

/// Three host presets x distinct workload mixes: the differential matrix.
std::vector<Window> differential_presets() {
  std::vector<Window> presets;

  {  // Cascade Lake, C2M-Read vs P2M-Write (the paper's Figure 2 quadrant).
    Window p;
    p.host = cascade_lake();
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(p.host, workloads::p2m_region());
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // Ice Lake, read-write cores vs P2M-Read from two devices on one IIO,
     // which keep every read slot busy and reuse them out of order.
    Window p;
    p.host = ice_lake();
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
    c2m.cores = 2;
    p.c2m = c2m;
    P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_read(p.host, workloads::p2m_region());
    p2m.second_storage = p2m.storage;
    p2m.second_storage->region.base += 2ull << 30;
    p.p2m = p2m;
    presets.push_back(p);
  }
  {  // Single-channel Cascade Lake variant, C2M only.
    Window p;
    p.host = cascade_lake();
    p.host.name = "cascade-lake-1ch";
    p.host.dram.channels = 1;
    C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 3;
    p.c2m = c2m;
    presets.push_back(p);
  }
  for (Window& p : presets) p.opt = fast_options();
  return presets;
}

/// `p`'s host built as execute() builds it: C2M cores, then storage. A
/// second device on a second stack needs that stack added first.
void place(HostSystem& host, const Window& p) {
  if (p.c2m)
    for (std::uint32_t i = 0; i < p.c2m->cores; ++i) {
      cpu::CoreWorkload wl = p.c2m->workload;
      if (p.c2m->per_core_region) wl.region.base += i * p.c2m->region_stride;
      host.add_core(wl);
    }
  if (p.p2m && p.p2m->storage) host.add_storage(*p.p2m->storage);
  if (p.p2m && p.p2m->second_storage)
    host.add_storage(*p.p2m->second_storage, p.p2m->second_stack ? 1 : 0);
}

TEST(Checkpoint, RestoreMatchesColdAcrossPresets) {
  // execute() never restores, so restore() is pinned here: a window run
  // from a warm host, and the same window rerun from that host's
  // checkpoint, must both equal the cold reference field by field. Under
  // HOSTNET_CHECKED the restore audit runs on every preset.
  for (const Window& p : differential_presets()) {
    SCOPED_TRACE(p.host.name);
    Plan plan;
    plan.add(p.host, p.c2m, p.p2m, p.opt);
    const Metrics cold = execute(plan, {1, SweepMode::kCold})[0].metrics;

    HostSystem host(p.host, p.opt.seed);
    place(host, p);
    host.run(p.opt.warmup, 0);
    const HostSnapshot checkpoint = host.snapshot();
    host.run_more(p.opt.measure);
    const Metrics saved = host.collect();
    host.restore(checkpoint);
    host.run_more(p.opt.measure);
    const Metrics restored = host.collect();
    expect_identical(cold, saved);
    expect_identical(cold, restored);
    if (p.p2m && p.p2m->second_storage) {  // two readers fill the IIO read buffer
      EXPECT_EQ(cold.p2m_read.max_credits_used, p.host.iio.read_credits);
    }
  }
}

TEST(ForkSweep, DifferentialBitIdenticalToColdAcrossPresets) {
  for (const Window& p : differential_presets()) {
    // One fingerprint at three measure lengths, not in ascending plan
    // order: the forked job warms once and reads the two shorter windows on
    // its way to the longest. Each must match the cold reference
    // bit-for-bit.
    Plan plan;
    for (const Tick factor : {2, 1, 3}) {
      RunOptions opt = p.opt;
      opt.measure = p.opt.measure * factor;
      plan.add(p.host, p.c2m, p.p2m, opt);
    }
    const Outcomes cold = execute(plan, {1, SweepMode::kCold});
    const Outcomes forked = execute(plan, {1, SweepMode::kFork});
    for (std::size_t i = 0; i < plan.size(); ++i) expect_identical(cold[i], forked[i]);
    EXPECT_EQ(forked.cache.checkpoint_misses, 1u) << p.host.name;
    EXPECT_EQ(forked.cache.checkpoint_hits, 2u) << p.host.name;
  }
}

TEST(ForkSweep, CoreSweepBitIdenticalToCold) {
  // The headline use: a figure-shaped core sweep, measured at two window
  // lengths so that every fingerprint forks, must reproduce the cold sweep
  // exactly -- every isolated and colocated window, read mid-run or not.
  const HostConfig host = cascade_lake();
  const RunOptions opt = fast_options();
  RunOptions longer = opt;
  longer.measure = opt.measure * 2;
  C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3};

  Plan plan;
  plan.core_sweep(host, c2m, p2m, cores, opt);
  plan.core_sweep(host, c2m, p2m, cores, longer);
  const Outcomes cold = execute(plan, {0, SweepMode::kCold});
  const Outcomes forked = execute(plan, {0, SweepMode::kFork});
  ASSERT_EQ(forked.windows.size(), cold.windows.size());
  for (std::size_t i = 0; i < plan.size(); ++i) expect_identical(forked[i], cold[i]);
  EXPECT_EQ(cold.cache.checkpoint_misses + cold.cache.checkpoint_hits, 0u);

  // The shared iso-P2M window and each per-count window are one fingerprint
  // each: each warms once and runs on from its shorter window to its longer
  // one. Nothing repeats, so no window is an outcome hit.
  EXPECT_EQ(forked.cache.checkpoint_misses, 1u + 2u * cores.size());
  EXPECT_EQ(forked.cache.checkpoint_hits, 1u + 2u * cores.size());
  EXPECT_EQ(forked.cache.outcome_hits, 0u);
}

TEST(Executor, BitIdenticalAcrossThreadsAndColdFork) {
  // One plan mixing shared warmups (two measure lengths per fingerprint)
  // and repeats, under every (threads, mode) combination.
  Plan plan;
  for (const Window& p : differential_presets()) {
    plan.add(p.host, p.c2m, p.p2m, p.opt);
    RunOptions longer = p.opt;
    longer.measure = p.opt.measure * 2;
    plan.add(p.host, p.c2m, p.p2m, longer);
    plan.add(p.host, p.c2m, p.p2m, p.opt);
  }
  const Outcomes ref = execute(plan, {1, SweepMode::kCold});
  for (const ExecOptions eo : {ExecOptions{4, SweepMode::kCold}, ExecOptions{1, SweepMode::kFork},
                               ExecOptions{4, SweepMode::kFork}}) {
    const Outcomes out = execute(plan, eo);
    ASSERT_EQ(out.windows.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) expect_identical(out[i], ref[i]);
  }
}

TEST(Executor, RepeatedWindowsSimulateOnce) {
  // Two identical colocations plus a longer colocated window: 7 windows, 4
  // distinct, 3 fingerprints. Forked, each fingerprint warms once, the
  // longer window continues its warm host past the shorter one and the
  // three repeats copy their identical window's outcome.
  const Window p = differential_presets().front();
  Plan plan;
  const ColocationRef a = plan.colocation(p.host, p.c2m, p.p2m, p.opt);
  const ColocationRef b = plan.colocation(p.host, p.c2m, p.p2m, p.opt);
  RunOptions longer = p.opt;
  longer.measure = p.opt.measure * 2;
  plan.add(p.host, p.c2m, p.p2m, longer);

  const Outcomes out = execute(plan, {4, SweepMode::kFork});
  EXPECT_EQ(out.cache.checkpoint_misses, 3u);
  EXPECT_EQ(out.cache.checkpoint_hits, 1u);
  EXPECT_EQ(out.cache.outcome_hits, 3u);
  EXPECT_EQ(out.cache.checkpoint_hits + out.cache.checkpoint_misses, 4u);

  expect_identical(out[a.colo], out[b.colo]);
  expect_identical(out[a.iso_p2m], out[b.iso_p2m]);
}

/// Changes one leaf to another value of its type.
template <class T>
void perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) v = !v;
  else if constexpr (std::is_same_v<T, std::string>) v += "'";
  else if constexpr (std::is_enum_v<T>)
    v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
  else v = static_cast<T>(v + 1);
}

/// Perturbs each leaf of `root` in turn and expects `fingerprint_of(copy)`
/// to differ from `base`; returns the number of leaves perturbed.
template <class T, class Fingerprint>
std::size_t expect_every_leaf_keyed(const T& root, const std::string& base,
                                    Fingerprint fingerprint_of) {
  std::size_t n = 0;
  fields::for_each_leaf(root, [&](const std::string& path, const auto&) {
    T copy = root;
    std::size_t i = 0;
    fields::for_each_leaf(copy, [&](const std::string&, auto& leaf) {
      if (i++ == n) perturb(leaf);
    });
    EXPECT_TRUE(fingerprint_of(copy) != base) << path << " is not keyed";
    ++n;
  });
  return n;
}

TEST(Executor, ExtensionWindowsMatchAHandBuiltHost) {
  // The extension figures read hostCC's throttle, a device on a second IIO
  // stack and each domain's latency histogram off windows. Such a window
  // must report what the same host built and run by hand reports, and fork
  // must equal cold.
  Window w = differential_presets().front();
  w.c2m->workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  w.c2m->hostcc = hostcc::HostccConfig{};
  w.p2m->second_storage = w.p2m->storage;
  w.p2m->second_storage->region.base += 2ull << 30;
  w.p2m->second_stack = true;

  HostSystem host(w.host, w.opt.seed);
  host.add_iio_stack(w.host.iio);
  place(host, w);
  const hostcc::HostCongestionController& cc = host.add_hostcc(*w.c2m->hostcc);
  host.run(w.opt.warmup, w.opt.measure);
  LatencyHistogram lfb, iio_write;
  for (const auto& c : host.cores()) lfb.merge(c->lfb_station().histogram());
  for (std::size_t i = 0; i < host.iio_stacks(); ++i)
    iio_write.merge(host.iio(i).write_station().histogram());

  Plan plan;
  plan.add(w.host, w.c2m, w.p2m, w.opt);
  RunOptions longer = w.opt;
  longer.measure = w.opt.measure * 2;
  plan.add(w.host, w.c2m, w.p2m, longer);
  const Outcomes forked = execute(plan, {1, SweepMode::kFork});
  const RunOutcome& o = forked[0];
  expect_identical(o.metrics, host.collect());
  EXPECT_EQ(o.hostcc_throttle, cc.avg_throttle(host.sim().now()));
  EXPECT_GT(o.hostcc_throttle, 0.0);
  EXPECT_GT(host.iio(1).write_station().completions(), 0u);
  EXPECT_TRUE(o.latency[static_cast<std::size_t>(Domain::kC2MRead)] == lfb);
  EXPECT_TRUE(o.latency[static_cast<std::size_t>(Domain::kP2MWrite)] == iio_write);

  const Outcomes cold = execute(plan, {1, SweepMode::kCold});
  for (std::size_t i = 0; i < plan.size(); ++i) expect_identical(forked[i], cold[i]);
}

TEST(ForkSweep, FingerprintSeparatesEveryInput) {
  const Window p = differential_presets().front();
  const RunOptions opt = p.opt;
  const std::string base =
      config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup);
  EXPECT_EQ(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup));

  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed + 1, opt.warmup));
  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, p.p2m, opt.seed, opt.warmup + 1));
  EXPECT_NE(base, config_fingerprint(p.host, p.c2m, std::nullopt, opt.seed, opt.warmup));
  EXPECT_NE(base, config_fingerprint(p.host, std::nullopt, p.p2m, opt.seed, opt.warmup));

  // Every leaf of every field table is keyed. The specs engage every
  // optional -- hostCC, both storage devices and both transports -- so none
  // of their leaves hides behind an empty one (execute() would reject the
  // transport combination; the key need not).
  C2MSpec c2m = *p.c2m;
  c2m.hostcc = hostcc::HostccConfig{};
  P2MSpec p2m = *p.p2m;
  p2m.second_storage = p2m.storage;
  p2m.tcp = net::TcpConfig{};
  p2m.rdma_write = RdmaWriteSpec{};
  const std::string all = config_fingerprint(p.host, c2m, p2m, opt.seed, opt.warmup);
  std::size_t leaves = expect_every_leaf_keyed(p.host, all, [&](const HostConfig& h) {
    return config_fingerprint(h, c2m, p2m, opt.seed, opt.warmup);
  });
  EXPECT_EQ(leaves, 54u);
  leaves += expect_every_leaf_keyed(c2m, all, [&](const C2MSpec& c) {
    return config_fingerprint(p.host, c, p2m, opt.seed, opt.warmup);
  });
  leaves += expect_every_leaf_keyed(p2m, all, [&](const P2MSpec& s) {
    return config_fingerprint(p.host, c2m, s, opt.seed, opt.warmup);
  });
  // 54 host + 17 C2M (4 hostCC) + 41 P2M (8 per storage device, 22 for the
  // TCP receiver, its NIC's 11 included): a visitor reaching nothing fails.
  EXPECT_EQ(leaves, 112u);
}

}  // namespace
}  // namespace hostnet::core
