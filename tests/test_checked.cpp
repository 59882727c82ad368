// Tests for the HOSTNET_CHECKED invariant layer (DESIGN.md section 4c).
//
// In checked builds (-DHOSTNET_CHECKED=ON) the death tests prove each
// invariant actually fires: a credit-leaking toy domain trips conservation,
// out-of-order event injection trips the simulator/queue monotonicity
// checks, and a delay that wraps the clock trips the overflow check. In
// unchecked builds the same file proves the instrumentation compiles out:
// a false HOSTNET_INVARIANT must do nothing. In both modes a loaded
// HostSystem run with verify_invariants() at every quiesce point must pass,
// and the host's DomainRegistry must list every pool of its member table.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/host_system.hpp"
#include "net/dctcp.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace hostnet {
namespace {

#if HOSTNET_CHECKED

// A toy flow-control domain with the same shape as the real ones: its own
// in-use counter plus a CreditLedger, where completing a request "forgets"
// to release the ledger entry -- exactly the single-sided bookkeeping bug
// the double-entry scheme exists to catch.
struct LeakyDomain {
  std::uint64_t in_use = 0;
  CreditLedger ledger;

  void issue() {
    ++in_use;
    ledger.acquire();
  }
  void complete_leaking() {
    --in_use;  // counter looks fine; the ledger entry is never released
  }
  void audit() const { ledger.verify(in_use, "toy.leaky"); }
};

TEST(CheckedInvariantDeathTest, LeakedCreditTripsConservation) {
  LeakyDomain d;
  d.ledger.set_capacity(4);
  d.issue();
  d.issue();
  d.complete_leaking();
  EXPECT_DEATH(d.audit(), "HOSTNET_INVARIANT");
}

TEST(CheckedInvariantDeathTest, DoubleReleaseTripsConservation) {
  LeakyDomain d;
  d.ledger.set_capacity(4);
  d.issue();
  d.ledger.release();
  d.ledger.release();  // replenishing a credit that was already returned
  EXPECT_DEATH(d.audit(), "HOSTNET_INVARIANT");
}

TEST(CheckedInvariantDeathTest, OverCapacityTripsPoolBound) {
  LeakyDomain d;
  d.ledger.set_capacity(1);
  d.issue();
  d.issue();  // two credits from a pool of one
  EXPECT_DEATH(d.audit(), "HOSTNET_INVARIANT");
}

TEST(CheckedInvariantDeathTest, SchedulingIntoThePastTripsMonotonicity) {
  sim::Simulator sim;
  sim.schedule_at(ns(100), [] {});
  sim.run_until(ns(200));
  EXPECT_DEATH(sim.schedule_at(ns(50), [] {}), "HOSTNET_INVARIANT");
}

TEST(CheckedInvariantDeathTest, DelayThatWrapsTheClockTripsOverflow) {
  sim::Simulator sim;
  sim.run_until(ns(200));
  EXPECT_DEATH(sim.schedule(std::numeric_limits<Tick>::max(), [] {}), "tick overflow");
}

TEST(CheckedInvariantDeathTest, CalendarPushBehindCursorTripsMonotonicity) {
  sim::CalendarQueue q;
  q.emplace(ns(10), [] {});
  const sim::CalendarQueue::Popped e = q.pop_next();
  ASSERT_NE(e.h, sim::CalendarQueue::kNil);
  ASSERT_EQ(e.at, ns(10));
  q.fire(e.h);  // cursor is now at ns(10)
  EXPECT_DEATH(q.emplace(ns(2), [] {}), "HOSTNET_INVARIANT");
}

#else  // !HOSTNET_CHECKED

TEST(CheckedInvariantCompiledOut, FalseInvariantIsANoOp) {
  // The condition must not even be evaluated in unchecked builds.
  bool evaluated = false;
  HOSTNET_INVARIANT(([&] {
                      evaluated = true;
                      return false;
                    }()),
                    "never printed");
  EXPECT_FALSE(evaluated);
}

TEST(CheckedInvariantCompiledOut, LedgerShellReportsNothing) {
  CreditLedger ledger;
  ledger.set_capacity(1);
  ledger.acquire();
  ledger.acquire();            // would trip the capacity bound if checked
  ledger.verify(0, "shell");   // and the conservation check; both are no-ops
  EXPECT_EQ(ledger.outstanding(), 0u);
}

#endif  // HOSTNET_CHECKED

// Runs in BOTH modes. In checked builds every reset_counters()/collect()
// audits the full host (credit conservation in all five domains, MC arena
// walks, bank-ownership bijection) against live loaded traffic.
TEST(CheckedInvariant, LoadedHostPassesQuiesceAudits) {
  const core::HostConfig hc = core::cascade_lake();
  core::HostSystem host(hc, /*seed=*/7);
  std::uint32_t idx = 0;
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(idx++)));
  host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(idx++)));
  host.add_core(workloads::gapbs_pr(workloads::c2m_core_region(idx++)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(50), us(200));
  core::Metrics m = host.collect();  // verify_invariants() runs here
  host.verify_invariants();          // and is callable directly
  EXPECT_GT(m.mem_gbps[0] + m.mem_gbps[1] + m.mem_gbps[2] + m.mem_gbps[3], 0.0);
}

TEST(CheckedInvariant, RegistryListsEveryPoolWithItsDomain) {
  // The registry is the member table walked for pools: a host with two IIO
  // stacks, a core, a TCP receiver and hostCC lists each of its pools once,
  // with the domain its owner declared or none (interior), and a domain's
  // pools in index order.
  core::HostSystem host(core::cascade_lake());
  cpu::Core& core0 = host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.add_iio_stack(host.config().iio);
  net::TcpReceiver& rx = host.add_tcp_receiver(net::TcpConfig{});
  host.add_hostcc(hostcc::HostccConfig{});
  EXPECT_TRUE(host.domains().entries().empty());  // indexed when the host starts
  host.run(0, 0);

  using Listed = std::pair<const flow::CreditPool*, std::optional<core::Domain>>;
  std::vector<Listed> expected;
  for (std::uint32_t ch = 0; ch < host.mc().num_channels(); ++ch) {
    expected.emplace_back(&host.mc().channel(ch).rpq_pool(), std::nullopt);
    expected.emplace_back(&host.mc().channel(ch).wpq_pool(), std::nullopt);
  }
  expected.emplace_back(&host.cha().read_pool(), std::nullopt);
  expected.emplace_back(&host.cha().write_pool(), std::nullopt);
  for (std::size_t i = 0; i < host.iio_stacks(); ++i) {
    expected.emplace_back(&host.iio(i).write_pool(), core::Domain::kP2MWrite);
    expected.emplace_back(&host.iio(i).read_pool(), core::Domain::kP2MRead);
  }
  expected.emplace_back(&core0.lfb_pool(), core::Domain::kC2MRead);
  expected.emplace_back(&core0.write_pool(), core::Domain::kC2MWrite);
  for (const auto& c : rx.copy_cores()) expected.emplace_back(&c->lfb_pool(), std::nullopt);
  ASSERT_EQ(expected.size(), 2 * host.mc().num_channels() + 2 + 2 * 2 + 2 + 4u);

  std::vector<Listed> listed;
  for (const auto& e : host.domains().entries()) listed.emplace_back(e.pool, e.domain());
  std::sort(expected.begin(), expected.end());
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(listed, expected);

  const auto pools_of = [&](core::Domain d) {
    std::vector<const flow::CreditPool*> v;
    host.domains().for_each(d, [&](const flow::DomainRegistry::Entry& e) { v.push_back(e.pool); });
    return v;
  };
  using Pools = std::vector<const flow::CreditPool*>;
  EXPECT_EQ(pools_of(core::Domain::kP2MWrite),
            (Pools{&host.iio(0).write_pool(), &host.iio(1).write_pool()}));
  EXPECT_EQ(pools_of(core::Domain::kP2MRead),
            (Pools{&host.iio(0).read_pool(), &host.iio(1).read_pool()}));
  EXPECT_EQ(pools_of(core::Domain::kC2MRead), Pools{&core0.lfb_pool()});
  EXPECT_EQ(pools_of(core::Domain::kC2MWrite), Pools{&core0.write_pool()});
}

}  // namespace
}  // namespace hostnet
