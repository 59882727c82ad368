// Unit tests for the event-driven simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace hostnet::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, SameTickFifoOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run_until(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RelativeScheduleUsesNow) {
  Simulator s;
  Tick fired_at = -1;
  s.schedule_at(100, [&] { s.schedule(50, [&] { fired_at = s.now(); }); });
  s.run_until(1000);
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(10, [&] { ++fired; });
  s.schedule_at(20, [&] { ++fired; });
  s.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 15);
  s.run_until(25);
  EXPECT_EQ(fired, 2);
}

/// A chain of `length` events, each scheduling the next `hop` ticks later
/// from inside its handler.
struct Chain {
  Chain(Tick hop, int length) : hop(hop), length(length) {}
  Simulator s;
  const Tick hop;
  const int length;
  int depth = 0;
  void step() {
    if (++depth < length) s.schedule(hop, [this] { step(); });
  }
};

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Chain c(1, 100);
  c.s.schedule_at(0, [&c] { c.step(); });
  c.s.run_until(1000);
  EXPECT_EQ(c.depth, 100);
  EXPECT_EQ(c.s.events_executed(), 100u);
}

TEST(Simulator, RunUntilLeavesLaterEventPendingWithoutAdvancing) {
  // The earliest pending events lie beyond `until`: one inside the current
  // L0 window, one several windows out. run_until must leave both pending,
  // stop the clock at `until` and not move the window past it, so a push at
  // until + 1 still files into the right slot and fires first.
  for (const Tick later : {Tick(5000), 5 * CalendarQueue::kWindowTicks + 7}) {
    Simulator s;
    std::vector<int> order;
    s.schedule_at(later, [&] { order.push_back(2); });
    const Tick until = 100;
    s.run_until(until);
    EXPECT_EQ(s.now(), until);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(s.events_executed(), 0u);
    s.schedule_at(until + 1, [&] { order.push_back(1); });
    s.run_until(later);
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "later event at tick " << later;
    EXPECT_EQ(s.pending(), 0u);
  }
}

TEST(Simulator, BoundaryEventIncluded) {
  Simulator s;
  bool fired = false;
  s.schedule_at(10, [&] { fired = true; });
  s.run_until(10);
  EXPECT_TRUE(fired);
}

// -- calendar-queue specific coverage ---------------------------------------

TEST(Simulator, SameTickFifoAcrossSchedulePaths) {
  // Event 1 is scheduled for tick T while T is beyond the first L0 window
  // (L1 bucket path); event 2 is scheduled for the same T at runtime, after
  // the window has advanced (direct L0 append). Schedule order must hold.
  Simulator s;
  std::vector<int> order;
  const Tick W = CalendarQueue::kWindowTicks;
  const Tick T = 2 * W + 1808;  // in the third L0 window, [2W, 3W)
  s.schedule_at(T, [&] { order.push_back(1); });
  s.schedule_at(T - 1000, [&] { s.schedule_at(T, [&] { order.push_back(2); }); });
  s.run_until(T + W);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, SameTickFifoAcrossBucketArrayWrap) {
  // Tick T sits beyond the whole calendar horizon at schedule time, so the
  // first two events take the overflow-map path; the third is scheduled for
  // the same T at runtime after the bucket array has wrapped around and the
  // overflow entry has migrated into L0. FIFO must follow schedule order:
  // 0 (setup), 2 (setup), then 1 (scheduled last, at runtime).
  Simulator s;
  std::vector<int> order;
  const Tick T = CalendarQueue::kHorizon + 12345;
  s.schedule_at(T, [&] { order.push_back(0); });
  s.schedule_at(T - 3, [&] { s.schedule(3, [&] { order.push_back(1); }); });
  s.schedule_at(T, [&] { order.push_back(2); });
  s.run_until(T);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(Simulator, StressOrderingMatchesStableSortByTick) {
  // 20k events over a range spanning many L0 windows, the L1 ring, and the
  // overflow map, with forced same-tick collisions. The firing order must
  // equal a stable sort of the schedule order by tick.
  Simulator s;
  Rng rng(42);
  struct Rec {
    Tick at;
    int seq;
  };
  std::vector<Rec> scheduled;
  std::vector<int> fired;
  const int n = 20000;
  Tick max_at = 0;
  for (int i = 0; i < n; ++i) {
    Tick at = static_cast<Tick>(rng.below(Tick(1) << 22));
    if (rng.chance(0.05)) at += CalendarQueue::kHorizon;  // overflow territory
    at &= ~Tick(63);                                      // force same-tick collisions
    max_at = std::max(max_at, at);
    scheduled.push_back({at, i});
    s.schedule_at(at, [&fired, i] { fired.push_back(i); });
  }
  s.run_until(max_at + 1);
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Rec& a, const Rec& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (int i = 0; i < n; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], scheduled[static_cast<size_t>(i)].seq);
  EXPECT_EQ(s.events_executed(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, UnmaskedTicksMatchStableSortWithinSlots) {
  // The stress test above masks ticks to multiples of 64, one tick per L0
  // slot. Here ticks are unmasked: distinct ticks share a slot and arrive
  // out of order, also from firing handlers; overflow ticks are spliced into
  // slots the L1 scatter already populated; run_until stops mid-slot, and
  // pushes then land ahead of the slot's pending events; and the queue is
  // saved and restored half-way. The firing order must equal a stable sort
  // of schedule order by tick throughout.
  constexpr Tick S = CalendarQueue::kSlotTicks;
  constexpr Tick W = CalendarQueue::kWindowTicks;
  constexpr Tick H = CalendarQueue::kHorizon;
  Simulator s;
  Rng rng(0x51077);
  struct Rec {
    Tick at;
    int seq;
  };
  std::vector<Rec> scheduled;
  std::vector<int> fired;
  // A delay for every placement: the same tick, the same or a nearby slot,
  // the rest of the window, L1, and now and then the overflow map.
  const auto delay = [&rng]() -> Tick {
    switch (rng.below(6)) {
      case 0: return 0;
      case 1: return static_cast<Tick>(rng.below(S));
      case 2: return static_cast<Tick>(rng.below(3 * S));
      case 3: return static_cast<Tick>(rng.below(W));
      case 4: return static_cast<Tick>(rng.below(4 * W));
      default:
        return rng.chance(0.1) ? H + static_cast<Tick>(rng.below(4 * W))
                               : static_cast<Tick>(rng.below(2 * S));
    }
  };
  int spawn_budget = 6000;
  // kids[seq]: the ticks event `seq` schedules when it fires. A closure
  // captures only `fire` and its index.
  std::vector<std::vector<Tick>> kids;
  std::function<void(int)> fire;
  const auto add = [&](Tick at) {
    const int seq = static_cast<int>(scheduled.size());
    scheduled.push_back({at, seq});
    kids.emplace_back();
    s.schedule_at(at, [&fire, seq] { fire(seq); });
    return seq;
  };
  fire = [&](int seq) {
    fired.push_back(seq);
    const std::vector<Tick> ks = kids[static_cast<std::size_t>(seq)];
    for (const Tick k : ks) add(k);
    const int children = spawn_budget > 0 ? static_cast<int>(rng.below(4)) : 0;
    spawn_budget -= children;
    for (int c = 0; c < children; ++c) add(s.now() + delay());
  };
  for (Tick t = 5 * S - 1; t >= 4 * S; --t) add(t);  // one slot, descending
  for (int i = 0; i < 2000; ++i) add(static_cast<Tick>(rng.below(2 * W)));
  // T is beyond the horizon at schedule time, so it waits in the overflow
  // map. Once the window reaches 6W, T - 2 and T + 3 fall within the horizon
  // and go to T's L1 bucket, while a second push at T itself joins the
  // overflow FIFO (rule b). On T's window advance the L1 scatter fills T's
  // slot first and the overflow run is spliced between the two.
  const Tick T = H + 5 * W + 7;
  add(T);
  kids[static_cast<std::size_t>(add(6 * W + 1))] = {T + 3, T, T - 2};
  Tick bound = 0;
  int extra = 0;
  bool restored = false;
  while (s.pending() > 0) {
    // Mostly short bounds that stop mid-slot; now and then a long stride.
    bound += rng.chance(0.9) ? 1 + static_cast<Tick>(rng.below(3 * S))
                             : static_cast<Tick>(rng.below(8 * W));
    s.run_until(bound);
    // Push at or just past the bound, ahead of what its slot still holds.
    if (extra < 3000 && rng.chance(0.3)) {
      ++extra;
      add(bound + static_cast<Tick>(rng.below(S)));
    }
    s.verify_invariants();
    if (!restored && fired.size() > scheduled.size() / 2) {
      restored = true;
      Simulator::Snapshot s1;
      Simulator::Snapshot s2;
      s.save_state(s1);
      s.load_state(s1);
      s.save_state(s2);
      EXPECT_TRUE(s1 == s2);
    }
  }
  EXPECT_TRUE(restored);
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Rec& a, const Rec& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 0; i < scheduled.size(); ++i) EXPECT_EQ(fired[i], scheduled[i].seq);
}

TEST(Simulator, LongChainAcrossManyWindowWraps) {
  // 96-tick hops: 50000 of them cross ~36 window boundaries.
  Chain c(3 * CalendarQueue::kSlotTicks, 50000);
  c.s.schedule_at(0, [&c] { c.step(); });
  c.s.run_until(ms(1));
  EXPECT_EQ(c.depth, 50000);
}

// -- node-pool coverage --------------------------------------------------------

TEST(Simulator, HandlerGrowingThePoolKeepsStableSortOrder) {
  // While one event fires, it schedules several pool chunks' worth of events
  // at mixed delays: the same tick, later in the L0 window, L1 buckets, the
  // overflow map, and ticks already holding pending events. The pool grows
  // under the running closure, whose captures must survive it, and the
  // firing order must still equal a stable sort of schedule order by tick.
  Simulator s;
  Rng rng(7);
  struct Rec {
    Tick at;
    int seq;
  };
  std::vector<Rec> scheduled;
  std::vector<int> fired;
  const auto add = [&](Tick at) {
    const int seq = static_cast<int>(scheduled.size());
    scheduled.push_back({at, seq});
    s.schedule_at(at, [&fired, seq] { fired.push_back(seq); });
  };
  const Tick t0 = 5000;
  const Tick deltas[] = {0, 1, 700, 3 * CalendarQueue::kWindowTicks, 250000,
                         CalendarQueue::kHorizon + 9};
  for (const Tick d : deltas) add(t0 + d);  // pre-existing same-tick FIFOs
  const std::uint64_t magic = 0x5eed'f00d'cafe'beefULL;
  std::uint64_t seen = 0;
  const auto burst = static_cast<int>(3 * CalendarQueue::kChunkNodes + 17);
  s.schedule_at(t0, [&, magic] {
    for (int i = 0; i < burst; ++i) {
      Tick d = deltas[static_cast<std::size_t>(i) % std::size(deltas)];
      if (rng.chance(0.5)) d += static_cast<Tick>(rng.below(CalendarQueue::kHorizon / 2));
      add(s.now() + d);
    }
    seen = magic;  // read from this closure's node after the pool grew
  });
  s.run_until(t0 + 2 * CalendarQueue::kHorizon);
  EXPECT_EQ(seen, magic);
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const Rec& a, const Rec& b) { return a.at < b.at; });
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 0; i < scheduled.size(); ++i) EXPECT_EQ(fired[i], scheduled[i].seq);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, SnapshotRoundTripIsAuditIdentical) {
  // Events in all three levels, a mid-window cursor, and a drained pool
  // prefix: save -> load into a fresh simulator -> save must reproduce the
  // snapshot, and both simulators must then fire the same sequence.
  std::vector<std::uint64_t> log_a;
  std::vector<std::uint64_t> log_b;
  Simulator a;
  const auto seed = [&a](std::vector<std::uint64_t>* log) {
    for (std::uint64_t i = 0; i < 40; ++i) {
      const Tick at = static_cast<Tick>(i % 4 == 0   ? 3000 + i
                                        : i % 4 == 1 ? CalendarQueue::kWindowTicks + 997 * i
                                        : i % 4 == 2 ? CalendarQueue::kHorizon + 31 * i
                                                     : 2500);
      a.schedule_at(at, [log, i] { log->push_back(i); });
    }
  };
  seed(&log_a);
  a.run_until(2600);  // fires the tick-2500 events; cursor mid-window
  ASSERT_EQ(log_a.size(), 10u);
  log_a.clear();
  Simulator::Snapshot s1;
  a.save_state(s1);
  EXPECT_FALSE(s1.queue_.l0.empty());
  EXPECT_FALSE(s1.queue_.l1.empty());
  EXPECT_FALSE(s1.queue_.overflow.empty());
  Simulator b;
  b.load_state(s1);
  Simulator::Snapshot s2;
  b.save_state(s2);
  EXPECT_TRUE(s1 == s2);
  // The restored closures still append to log_a; compare the sequences.
  a.run_until(2 * CalendarQueue::kHorizon);
  log_b.swap(log_a);
  b.run_until(2 * CalendarQueue::kHorizon);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(log_a.size(), 30u);
}

TEST(Event, InlineSmallCaptures) {
  int x = 0;
  Event a([&x] { ++x; });
  Event b = std::move(a);
  b();
  EXPECT_EQ(x, 1);
}

}  // namespace
}  // namespace hostnet::sim
