// Tests for the pluggable TCP stack framework (net/tcp_stack.hpp): the
// DCTCP differential against the pre-refactor receiver arithmetic,
// per-stack snapshot -> run -> restore -> replay identity, fork-vs-cold
// bit-identity through the executor's per-window step, and the stack kind's
// reach into core::config_fingerprint().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/dctcp.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::net {
namespace {

/// Bitwise equality of the outcome fields a figure is built from; the
/// checkpoint engine promises bit-identical, not approximately-equal.
void expect_identical(const core::RunOutcome& a, const core::RunOutcome& b) {
  EXPECT_EQ(a.c2m_score, b.c2m_score);
  EXPECT_EQ(a.p2m_score, b.p2m_score);
  EXPECT_EQ(a.transport, b.transport);  // goodput, loss, marks, cwnd, copy stats
  EXPECT_EQ(a.metrics.window_ns, b.metrics.window_ns);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c)
    EXPECT_EQ(a.metrics.mem_gbps[static_cast<size_t>(c)],
              b.metrics.mem_gbps[static_cast<size_t>(c)]);
  EXPECT_EQ(a.metrics.mc_lines_read, b.metrics.mc_lines_read);
  EXPECT_EQ(a.metrics.mc_lines_written, b.metrics.mc_lines_written);
  EXPECT_EQ(a.metrics.p2m_write.latency_ns, b.metrics.p2m_write.latency_ns);
  EXPECT_EQ(a.metrics.c2m_read.latency_ns, b.metrics.c2m_read.latency_ns);
  EXPECT_EQ(a.metrics.p2m_dev_gbps, b.metrics.p2m_dev_gbps);
}

// -- DCTCP differential ------------------------------------------------------

TEST(TcpStacks, DctcpMatchesPreRefactorFormulaExactly) {
  // Drive the extracted stack with randomized epoch telemetry and run the
  // verbatim pre-refactor TcpReceiver::rtt_epoch() arithmetic beside it.
  // EXPECT_EQ on doubles: the extraction claims byte-identity, and any
  // reordering of the floating-point ops would show up here.
  Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    const double g = 0.0625;
    const double initial = 64;
    DctcpStack stack(initial, g);
    double ref_cwnd = initial;
    double ref_alpha = 0;
    TransportTelemetry t;
    for (int epoch = 0; epoch < 300; ++epoch) {
      t.clear_epoch();
      t.epoch_acks = rng.next() % 64;
      t.epoch_marks = t.epoch_acks > 0 ? rng.next() % (t.epoch_acks + 1) : 0;
      t.epoch_drops = rng.chance(0.15) ? 1 + rng.next() % 3 : 0;
      stack.on_epoch(t, 0);

      if (t.epoch_drops > 0) {
        ref_cwnd = std::max(2.0, ref_cwnd / 2.0);
      } else if (t.epoch_acks > 0) {
        const double frac = static_cast<double>(t.epoch_marks) /
                            static_cast<double>(t.epoch_acks);
        ref_alpha = (1.0 - g) * ref_alpha + g * frac;
        if (frac > 0)
          ref_cwnd = std::max(2.0, ref_cwnd * (1.0 - ref_alpha / 2.0));
        else
          ref_cwnd += 1.0;
      }
      ref_cwnd = std::min(ref_cwnd, 2048.0);
      ASSERT_EQ(ref_cwnd, stack.cwnd()) << "trial " << trial << " epoch " << epoch;
    }
  }
}

// -- per-stack unit behavior -------------------------------------------------

TEST(TcpStacks, BbrPacingGateEngagesAfterBandwidthEstimate) {
  BbrStack bbr(64, us(40));
  EXPECT_EQ(bbr.pacing_gate(0), 0);  // startup: unpaced until the filters fill
  TransportTelemetry t;
  t.epoch_acks = 50;
  t.note_rtt(us(40));
  bbr.on_epoch(t, us(40));
  EXPECT_EQ(bbr.max_bw_packets_per_epoch(), 50.0);
  EXPECT_EQ(bbr.min_rtt(), us(40));
  bbr.on_send(us(100));
  EXPECT_GT(bbr.pacing_gate(us(100)), 0);  // next send is spaced out
}

TEST(TcpStacks, DavisBacksOffOnRttInflationWithoutDrops) {
  DavisStack davis(64, us(40));
  TransportTelemetry t;
  t.epoch_acks = 50;
  t.note_rtt(us(40));
  davis.on_epoch(t, us(40));
  const double cruising = davis.cwnd();
  EXPECT_GT(cruising, 64.0);  // at baseline RTT: additive growth

  // Average RTT inflates well past the windowed minimum: multiplicative
  // backoff with zero drops (the delay signal, not the loss signal).
  t.clear_epoch();
  t.epoch_acks = 50;
  for (int i = 0; i < 10; ++i) t.note_rtt(us(60));
  davis.on_epoch(t, us(80));
  EXPECT_EQ(davis.min_rtt(), us(40));
  EXPECT_LT(davis.cwnd(), cruising);
}

TEST(TcpStacks, SnapshotBlobRoundTripsPerStack) {
  // save_state -> keep mutating -> load_state must restore the exact CC state.
  for (const TcpStackKind kind :
       {TcpStackKind::kDctcp, TcpStackKind::kBbr, TcpStackKind::kDavis}) {
    TcpConfig cfg;
    cfg.stack = kind;
    const auto stack = make_tcp_stack(cfg);
    EXPECT_EQ(stack->kind(), kind);
    TransportTelemetry t;
    t.epoch_acks = 40;
    t.epoch_marks = 8;
    t.note_rtt(us(50));
    stack->on_epoch(t, us(40));
    const double cwnd_at_save = stack->cwnd();
    TcpStack::Snapshot saved;
    stack->save_state(saved);

    // Keep mutating with different telemetry: drops halve the loss-aware
    // stacks, the quadrupled delivery rate moves BBR's bandwidth filter.
    t.epoch_drops = 2;
    t.epoch_acks = 160;
    for (int i = 0; i < 5; ++i) stack->on_epoch(t, us(40) * (i + 2));
    EXPECT_NE(stack->cwnd(), cwnd_at_save) << to_string(kind);
    stack->load_state(saved);
    EXPECT_EQ(stack->cwnd(), cwnd_at_save) << to_string(kind);
    TcpStack::Snapshot resaved;
    stack->save_state(resaved);
    EXPECT_EQ(saved, resaved) << to_string(kind);
  }
}

// -- receiver-level identity per stack ---------------------------------------

class TcpStackParam : public ::testing::TestWithParam<TcpStackKind> {};

TEST_P(TcpStackParam, ReceiverRestoreReplaysIdenticalWindow) {
  // Randomized property per stack: warm the receiver, snapshot, run extra,
  // then restore and re-run -- event counts, clocks, goodput and loss must
  // replay bit-identically (the pacing timer and pending delivery-clocked
  // ACKs ride the simulator's event-queue snapshot).
  Rng rng(917 + static_cast<int>(GetParam()));
  for (int trial = 0; trial < 2; ++trial) {
    const core::HostConfig hc = core::cascade_lake();
    core::HostSystem host(hc, rng.next() % 512 + 1);
    TcpConfig cfg;
    cfg.stack = GetParam();
    const TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
    const Tick warmup = us(100 + rng.next() % 100);
    const Tick extra = us(150 + rng.next() % 150);
    host.run(warmup, 0);
    const core::HostSnapshot checkpoint = host.snapshot();

    host.run_more(extra);
    const double goodput1 = rx.goodput_gbps(host.sim().now());
    const double loss1 = rx.loss_rate();
    const double cwnd1 = rx.avg_cwnd();
    const std::uint64_t executed1 = host.sim().events_executed();
    const Tick end1 = host.sim().now();

    host.restore(checkpoint);
    host.run_more(extra);
    EXPECT_EQ(goodput1, rx.goodput_gbps(host.sim().now())) << "trial " << trial;
    EXPECT_EQ(loss1, rx.loss_rate()) << "trial " << trial;
    EXPECT_EQ(cwnd1, rx.avg_cwnd()) << "trial " << trial;
    EXPECT_EQ(executed1, host.sim().events_executed()) << "trial " << trial;
    EXPECT_EQ(end1, host.sim().now()) << "trial " << trial;
    EXPECT_GT(goodput1, 0.0);
  }
}

TEST_P(TcpStackParam, ForkSweepBitIdenticalToCold) {
  // The fork path: a TCP receiver placed by the executor must fork
  // bit-identically to a cold run, for every stack. One fingerprint at
  // three measure lengths, not in ascending plan order: the forked job
  // warms once and reads the two shorter windows on its way to the longest.
  core::Window w;
  w.host = core::cascade_lake();
  w.opt.warmup = us(30);
  w.opt.measure = us(100);
  w.opt.seed = 7;
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  c2m.cores = 2;
  w.c2m = c2m;
  core::P2MSpec p2m;
  p2m.tcp = TcpConfig{};
  p2m.tcp->stack = GetParam();
  p2m.name = "tcp_" + to_string(GetParam());
  w.p2m = p2m;

  core::Plan plan;
  for (const Tick factor : {2, 1, 3}) {
    core::RunOptions opt = w.opt;
    opt.measure = w.opt.measure * factor;
    plan.add(w.host, w.c2m, w.p2m, opt);
  }
  const core::Outcomes cold = core::execute(plan, {1, core::SweepMode::kCold});
  const core::Outcomes forked = core::execute(plan, {1, core::SweepMode::kFork});
  for (std::size_t i = 0; i < plan.size(); ++i) expect_identical(cold[i], forked[i]);
  EXPECT_EQ(forked.cache.checkpoint_misses, 1u);
  EXPECT_EQ(forked.cache.checkpoint_hits, 2u);
  EXPECT_GT(cold[0].p2m_score, 0.0);  // the transport's goodput, not dev_gbps
  EXPECT_EQ(cold[0].p2m_score, cold[0].transport.goodput_gbps);
  EXPECT_GT(cold[0].transport.copy_lines, 0u);  // the record is filled, not left at zero
  EXPECT_GT(cold[0].transport.avg_cwnd, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, TcpStackParam,
                         ::testing::Values(TcpStackKind::kDctcp,
                                           TcpStackKind::kBbr,
                                           TcpStackKind::kDavis),
                         [](const ::testing::TestParamInfo<TcpStackKind>& info) {
                           return to_string(info.param);
                         });

// -- config plumbing ---------------------------------------------------------

TEST(TcpStacks, FingerprintSeparatesStackKinds) {
  // Same host, same everything, different stack: distinct fingerprints, so
  // execute()'s forking jobs and fleet sharding can never alias two stacks.
  const core::HostConfig host = core::cascade_lake();
  core::RunOptions opt;
  opt.seed = 7;
  auto fp = [&](TcpStackKind kind) {
    core::P2MSpec p2m;
    p2m.tcp = TcpConfig{};
    p2m.tcp->stack = kind;
    p2m.name = "tcp";  // identical names: only the stack byte may differ
    return core::config_fingerprint(host, std::nullopt, p2m, opt.seed, opt.warmup);
  };
  const std::string dctcp = fp(TcpStackKind::kDctcp);
  const std::string bbr = fp(TcpStackKind::kBbr);
  const std::string davis = fp(TcpStackKind::kDavis);
  EXPECT_NE(dctcp, bbr);
  EXPECT_NE(dctcp, davis);
  EXPECT_NE(bbr, davis);

  // And a tcp placement is distinct from no p2m at all.
  EXPECT_NE(dctcp,
            core::config_fingerprint(host, std::nullopt, std::nullopt, opt.seed, opt.warmup));
}

TEST(TcpStacks, SpecZooAndStackNamesRoundTrip) {
  for (const auto kind : {TcpStackKind::kDctcp, TcpStackKind::kBbr,
                          TcpStackKind::kDavis}) {
    const std::optional<TcpConfig> spec = tcp_p2m_workload("tcp_" + to_string(kind));
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->stack, kind);
    EXPECT_EQ(tcp_stack_kind(to_string(kind)), kind);
  }
  EXPECT_FALSE(tcp_p2m_workload("fio_write").has_value());
  EXPECT_FALSE(tcp_stack_kind("reno").has_value());
}

}  // namespace
}  // namespace hostnet::net
