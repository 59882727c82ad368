// Tests for the HOSTNET_CHECKED invariant layer (DESIGN.md section 4c).
//
// In checked builds (-DHOSTNET_CHECKED=ON) the death tests prove each
// invariant actually fires: a credit-leaking toy domain trips conservation,
// out-of-order event injection trips the simulator/queue monotonicity
// checks. In unchecked builds the same file proves the instrumentation
// compiles out: a false HOSTNET_INVARIANT must do nothing, and a loaded
// HostSystem run with verify_invariants() at every quiesce point must pass
// in both modes.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/host_system.hpp"
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

TEST(CheckedInvariantDeathTest, CalendarPushBehindCursorTripsMonotonicity) {
  sim::CalendarQueue q;
  q.emplace(ns(10), [] {});
  const Tick at = q.next_tick();
  ASSERT_EQ(at, ns(10));
  q.fire(q.pop(at));  // cursor is now at ns(10)
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

}  // namespace
}  // namespace hostnet
