// Tests for the HOSTNET_CHECKED invariant layer (DESIGN.md section 4c).
//
// In checked builds (-DHOSTNET_CHECKED=ON) the death tests prove each
// invariant actually fires: a credit-leaking toy domain trips conservation,
// out-of-order event injection trips the simulator/queue monotonicity
// checks, a delay that wraps the clock trips the overflow check, and an
// attached component's unregistered credit pool trips the registry audit. In
// unchecked builds the same file proves the instrumentation compiles out:
// a false HOSTNET_INVARIANT must do nothing, and a loaded
// HostSystem run with verify_invariants() at every quiesce point must pass
// in both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "core/host_system.hpp"
#include "net/dctcp.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace hostnet {
namespace {

/// An attachable component with a flow::CreditPool in its State, which no
/// one registers unless a test does.
class PoolPort {
 public:
  struct State {
    flow::CreditPool txq;
    std::uint64_t sent = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, txq, sent)
  };

  void start() {}
  void reset_counters(Tick) {}
  flow::CreditPool& txq() { return st_.txq; }

 private:
  State st_;
  HOSTNET_COMPONENT(PoolPort, st_)
};

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
  const Tick at = q.next_tick();
  ASSERT_EQ(at, ns(10));
  q.fire(q.pop(at));  // cursor is now at ns(10)
  EXPECT_DEATH(q.emplace(ns(2), [] {}), "HOSTNET_INVARIANT");
}

TEST(CheckedInvariantDeathTest, UnregisteredPoolTripsRegistryAudit) {
  // The pool sits in an attached component's State, so the host's walk over
  // the component tables finds it, and nothing registered it.
  core::HostSystem host(core::cascade_lake());
  PoolPort port;
  host.attach(port);
  EXPECT_DEATH(host.verify_invariants(), "external.st_.txq is a flow::CreditPool that is not");
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

TEST(CheckedInvariant, PoolWalkFindsExactlyTheRegisteredPools) {
  // The registry audit is only as good as the walk: over the host and an
  // attached TCP receiver it must reach every registered pool, and no other.
  core::HostSystem host(core::cascade_lake());
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.add_iio_stack(host.config().iio);
  net::TcpReceiver rx(host, net::TcpConfig{});
  std::vector<const flow::CreditPool*> found;
  const auto collect = [&](const std::string&, const flow::CreditPool& p) { found.push_back(&p); };
  fields::for_each_reachable<flow::CreditPool>(std::as_const(host), collect);
  fields::for_each_reachable<flow::CreditPool>(std::as_const(rx), collect);
  std::vector<const flow::CreditPool*> registered;
  for (const auto& e : host.domains().entries()) registered.push_back(e.pool);
  std::sort(found.begin(), found.end());
  std::sort(registered.begin(), registered.end());
  EXPECT_EQ(found, registered);
  // RPQ + WPQ per channel, the CHA's two trackers, two IIO stacks, one
  // core and the receiver's four copy cores.
  EXPECT_EQ(found.size(), 2 * host.mc().num_channels() + 2 + 2 * 2 + 2 + 4u);
}

TEST(CheckedInvariant, RegisteredExternalPoolPassesRegistryAudit) {
  core::HostSystem host(core::cascade_lake());
  PoolPort port;
  host.domains().add_interior("port.txq", &port.txq());
  host.attach(port);
  host.verify_invariants();
}

}  // namespace
}  // namespace hostnet
