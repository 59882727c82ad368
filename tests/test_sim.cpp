// Unit tests for the event-driven simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
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

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule(1, chain);
  };
  s.schedule_at(0, chain);
  s.run_until(1000);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.events_executed(), 100u);
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
  const Tick T = 10000;  // window [8192, 12288) for the 4096-tick L0 window
  s.schedule_at(T, [&] { order.push_back(1); });
  s.schedule_at(9000, [&] { s.schedule_at(T, [&] { order.push_back(2); }); });
  s.run_until(20000);
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

TEST(Simulator, LongChainAcrossManyWindowWraps) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50000) s.schedule(3, chain);  // crosses ~36 window boundaries
  };
  s.schedule_at(0, chain);
  s.run_until(ms(1));
  EXPECT_EQ(depth, 50000);
}

TEST(Simulator, LargeCaptureEventsFallBackToHeapAndRun) {
  Simulator s;
  std::array<std::uint64_t, 16> payload{};  // 128 B: over the inline capacity
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  s.schedule_at(5, [payload, &sum] {
    for (auto v : payload) sum += v;
  });
  s.run_until(10);
  EXPECT_EQ(sum, 120u);
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
  const Tick deltas[] = {0, 1, 700, 3 * CalendarQueue::kNumSlots, 250000,
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

/// Heap-fallback closure (not trivially copyable) that counts its live
/// copies, so leaks and double destruction both show up as a bad balance.
struct CountedClosure {
  static inline int live = 0;
  static inline int destroyed = 0;
  int* fired;
  CountedClosure(int* f) : fired(f) { ++live; }
  CountedClosure(const CountedClosure& o) : fired(o.fired) { ++live; }
  ~CountedClosure() {
    --live;
    ++destroyed;
  }
  void operator()() const { ++*fired; }
};

/// The same, but also larger than Event's inline buffer.
struct BigCountedClosure : CountedClosure {
  std::array<std::uint64_t, 12> payload{};
  using CountedClosure::CountedClosure;
};

TEST(Simulator, HeapClosuresAreDestroyedExactlyOnce) {
  static_assert(sizeof(BigCountedClosure) > Event::kInlineBytes);
  CountedClosure::live = 0;
  CountedClosure::destroyed = 0;
  int fired = 0;
  const Tick levels[] = {10, 3 * Tick(CalendarQueue::kNumSlots), CalendarQueue::kHorizon + 5};
  const auto fill = [&](Simulator& sim, Tick base) {
    for (const Tick t : levels) {
      sim.schedule_at(base + t, CountedClosure(&fired));
      sim.schedule_at(base + t, BigCountedClosure(&fired));
    }
  };
  {
    // Pending at queue destruction, in every level.
    Simulator s;
    fill(s, 0);
    EXPECT_FALSE(Event(CountedClosure(&fired)).inlined());
    EXPECT_EQ(CountedClosure::live, 6);
  }
  EXPECT_EQ(CountedClosure::live, 0);
  EXPECT_EQ(fired, 0);

  {
    Simulator a;
    fill(a, 0);
    Simulator::Snapshot snap;
    a.save_state(snap);
    EXPECT_EQ(CountedClosure::live, 12);  // 6 pending + 6 snapshot clones
    Simulator b;
    fill(b, 100);
    b.run_until(50);  // b's cursor moves; its pending events stay pending
    EXPECT_EQ(CountedClosure::live, 18);
    CountedClosure::destroyed = 0;
    b.load_state(snap);  // destroys b's 6 pending closures, adopts 6 clones
    EXPECT_EQ(CountedClosure::live, 18);
    EXPECT_EQ(CountedClosure::destroyed, 6);
    b.load_state(snap);  // and again: the adopted clones are destroyed once
    EXPECT_EQ(CountedClosure::live, 18);
    EXPECT_EQ(CountedClosure::destroyed, 12);
    b.run_until(2 * CalendarQueue::kHorizon);  // fires and destroys b's 6
    EXPECT_EQ(fired, 6);
    EXPECT_EQ(CountedClosure::live, 12);
    EXPECT_EQ(CountedClosure::destroyed, 18);
  }
  EXPECT_EQ(CountedClosure::live, 0);
  EXPECT_EQ(CountedClosure::destroyed, 30);
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
                                        : i % 4 == 1 ? 9000 + 997 * i
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
  EXPECT_FALSE(s1.queue.l0.empty());
  EXPECT_FALSE(s1.queue.l1.empty());
  EXPECT_FALSE(s1.queue.overflow.empty());
  Simulator b;
  b.load_state(s1);
  Simulator::Snapshot s2;
  b.save_state(s2);
  EXPECT_TRUE(Simulator::audit_identical(s1, s2));
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
  EXPECT_TRUE(a.inlined());
  Event b = std::move(a);
  b();
  EXPECT_EQ(x, 1);
}

TEST(Event, HeapFallbackForLargeCaptures) {
  std::array<std::uint64_t, 32> big{};
  big[31] = 7;
  Event e([big] { (void)big[0]; });
  EXPECT_FALSE(e.inlined());
  e();
}

TEST(Event, ReleasesCapturedResources) {
  auto sp = std::make_shared<int>(7);
  {
    // Owning captures are not trivially copyable, so they take the heap
    // path -- and their resources must still be released exactly once.
    Event e([sp] { (void)*sp; });
    EXPECT_FALSE(e.inlined());
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);

  // Moved-from events must not double-release on destruction.
  {
    Event e([sp] { (void)*sp; });
    Event f = std::move(e);
    EXPECT_EQ(sp.use_count(), 2);
  }
  EXPECT_EQ(sp.use_count(), 1);
}

}  // namespace
}  // namespace hostnet::sim
