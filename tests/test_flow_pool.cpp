// flow::CreditPool -- unit tests for each policy knob, plus a randomized
// property test against a naive mirror model (plain counter + std::deque
// waiter queues + hand-rolled occupancy integral). The pool replaced four
// hand-written flow-control implementations; the mirror pins down the shared
// semantics they all rely on.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "flow/credit_pool.hpp"

namespace hostnet::flow {
namespace {

/// Records its wakes so tests can assert order and multiplicity.
struct RecordingWaiter final : CreditWaiter {
  void on_credit_available(CreditPool&) override { ++wakes; }
  int wakes = 0;
};

TEST(CreditPool, AcquireReleaseTracksInUse) {
  CreditPoolSpec spec;
  spec.name = "test.basic";
  spec.capacity = 4;
  CreditPool pool(spec);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_TRUE(pool.has_space());
  pool.acquire(ns(10));
  pool.acquire(ns(10));
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(ns(30), /*entered=*/ns(10));
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.station().completions(), 1u);
  EXPECT_DOUBLE_EQ(pool.station().mean_latency_ns(), 20.0);
  pool.release(ns(40));  // untimed: occupancy only
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.station().completions(), 1u);
  pool.verify();
}

TEST(CreditPool, ZeroCapacityIsUnbounded) {
  CreditPoolSpec spec;
  spec.name = "test.telemetry";
  CreditPool pool(spec);  // capacity 0: telemetry-only
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.has_space());
    pool.acquire(ns(i));
  }
  EXPECT_EQ(pool.in_use(), 100u);
}

TEST(CreditPool, ReserveIsPrivilegedOnly) {
  CreditPoolSpec spec;
  spec.name = "test.reserve";
  spec.capacity = 4;
  spec.reserve = 2;
  CreditPool pool(spec);
  EXPECT_TRUE(pool.try_acquire(0));
  EXPECT_TRUE(pool.try_acquire(0));
  // Normal acquirers are capped at capacity - reserve = 2.
  EXPECT_FALSE(pool.has_space(/*privileged=*/false));
  EXPECT_FALSE(pool.try_acquire(0, /*privileged=*/false));
  // Privileged ones may use the whole pool.
  EXPECT_TRUE(pool.try_acquire(0, /*privileged=*/true));
  EXPECT_TRUE(pool.try_acquire(0, /*privileged=*/true));
  EXPECT_FALSE(pool.try_acquire(0, /*privileged=*/true));
  EXPECT_EQ(pool.in_use(), 4u);
}

TEST(CreditPool, WhileAvailableDrainsPrivilegedFirst) {
  CreditPoolSpec spec;
  spec.name = "test.wake";
  spec.capacity = 8;
  CreditPool pool(spec);
  RecordingWaiter normal, priv;
  pool.enqueue_waiter(&normal, /*privileged=*/false);
  pool.enqueue_waiter(&priv, /*privileged=*/true);
  EXPECT_EQ(pool.waiting(), 2u);
  pool.notify();  // space for all: both wake, privileged first
  EXPECT_EQ(priv.wakes, 1);
  EXPECT_EQ(normal.wakes, 1);
  EXPECT_EQ(pool.waiting(), 0u);
}

TEST(CreditPool, OnePerNotifyWakesExactlyOne) {
  CreditPoolSpec spec;
  spec.name = "test.one";
  spec.capacity = 8;
  spec.wake = WakePolicy::kOnePerNotify;
  CreditPool pool(spec);
  RecordingWaiter a, b;
  pool.enqueue_waiter(&a);
  pool.enqueue_waiter(&b);
  pool.notify();
  EXPECT_EQ(a.wakes, 1);  // FIFO: first registered wakes first
  EXPECT_EQ(b.wakes, 0);
  pool.notify();
  EXPECT_EQ(b.wakes, 1);
}

TEST(CreditPool, DedupSuppressesDuplicateRegistration) {
  CreditPoolSpec spec;
  spec.name = "test.dedup";
  spec.capacity = 8;
  spec.dedup_waiters = true;
  CreditPool pool(spec);
  RecordingWaiter w;
  pool.enqueue_waiter(&w);
  pool.enqueue_waiter(&w);  // dropped
  EXPECT_EQ(pool.waiting(), 1u);

  CreditPoolSpec dup = spec;
  dup.name = "test.nodedup";
  dup.dedup_waiters = false;
  CreditPool pool2(dup);
  pool2.enqueue_waiter(&w);
  pool2.enqueue_waiter(&w);  // intentional duplicate (CHA client semantics)
  EXPECT_EQ(pool2.waiting(), 2u);
}

TEST(CreditPool, HysteresisWatermarks) {
  CreditPoolSpec spec;
  spec.name = "test.hyst";
  spec.capacity = 32;
  spec.high_watermark = 22;
  spec.low_watermark = 8;
  CreditPool pool(spec);
  for (int i = 0; i < 21; ++i) pool.acquire(0);
  EXPECT_FALSE(pool.above_high());
  pool.acquire(0);
  EXPECT_TRUE(pool.above_high());  // >= high engages
  while (pool.in_use() > 9) pool.release(ns(1));
  EXPECT_FALSE(pool.at_or_below_low());
  pool.release(ns(1));
  EXPECT_TRUE(pool.at_or_below_low());  // <= low disengages
}

TEST(CreditPool, PressureFractionIntegratesOverThreshold) {
  CreditPoolSpec spec;
  spec.name = "test.pressure";
  spec.capacity = 8;
  spec.pressure_threshold = 2;
  CreditPool pool(spec);
  pool.acquire(0);
  pool.acquire(0);
  pool.acquire(0);  // in_use 3 > 2: pressure on from t=0
  pool.release(ns(40));
  pool.release(ns(40));  // pressure off at t=40ns
  // Over [0, 100ns]: 40% of the window above the threshold.
  EXPECT_NEAR(pool.pressure_fraction(ns(100)), 0.4, 1e-12);
}

// ---------------------------------------------------------------------------
// Randomized property test: CreditPool vs a naive mirror.
// ---------------------------------------------------------------------------

/// The simplest possible implementation of the same contract.
struct MirrorPool {
  explicit MirrorPool(const CreditPoolSpec& s) : spec(s) {}

  bool has_space(bool privileged) const {
    if (spec.capacity == 0) return true;
    const std::uint32_t cap = privileged ? spec.capacity
                              : spec.capacity > spec.reserve
                                  ? spec.capacity - spec.reserve
                                  : 0;
    return in_use < cap;
  }
  void advance(Tick now) {
    occupancy_integral += static_cast<double>(in_use) *
                          static_cast<double>(now - last_time);
    last_time = now;
  }
  void acquire(Tick now) {
    advance(now);
    ++in_use;
  }
  void release(Tick now) {
    advance(now);
    --in_use;
  }
  void notify(std::vector<int>* wake_log) {
    if (spec.wake == WakePolicy::kOnePerNotify) {
      if (!waiters.empty()) {
        wake_log->push_back(waiters.front());
        waiters.pop_front();
      }
      return;
    }
    while (!privileged_waiters.empty() && has_space(true)) {
      wake_log->push_back(privileged_waiters.front());
      privileged_waiters.pop_front();
    }
    while (!waiters.empty() && has_space(false)) {
      wake_log->push_back(waiters.front());
      waiters.pop_front();
    }
  }
  void enqueue(int id, bool privileged) {
    auto& q = privileged ? privileged_waiters : waiters;
    if (spec.dedup_waiters)
      for (int queued : q)
        if (queued == id) return;
    q.push_back(id);
  }

  CreditPoolSpec spec;
  std::uint32_t in_use = 0;
  std::deque<int> waiters;
  std::deque<int> privileged_waiters;
  double occupancy_integral = 0;
  Tick last_time = 0;
};

/// Pool-side waiter that appends its id to the same kind of wake log.
struct LoggingWaiter final : CreditWaiter {
  void on_credit_available(CreditPool&) override { log->push_back(id); }
  std::vector<int>* log = nullptr;
  int id = 0;
};

void run_property_trial(std::uint64_t seed, WakePolicy wake, bool dedup,
                        std::uint32_t capacity, std::uint32_t reserve) {
  CreditPoolSpec spec;
  spec.name = "test.property";
  spec.capacity = capacity;
  spec.reserve = reserve;
  spec.wake = wake;
  spec.dedup_waiters = dedup;
  CreditPool pool(spec);
  MirrorPool mirror(spec);

  constexpr int kWaiters = 8;
  LoggingWaiter waiters[kWaiters];
  std::vector<int> pool_log, mirror_log;
  for (int i = 0; i < kWaiters; ++i) {
    waiters[i].log = &pool_log;
    waiters[i].id = i;
  }

  Rng rng(seed);
  Tick now = 0;
  std::vector<Tick> outstanding;  // acquire times of held credits
  for (int step = 0; step < 2000; ++step) {
    now += static_cast<Tick>(rng.below(100));
    const std::uint64_t action = rng.below(10);
    if (action < 4) {  // try-acquire
      const bool privileged = rng.chance(0.3);
      const bool got = pool.try_acquire(now, privileged);
      EXPECT_EQ(got, mirror.has_space(privileged));
      if (got) {
        mirror.acquire(now);
        outstanding.push_back(now);
      }
    } else if (action < 7) {  // release (timed), then notify
      if (!outstanding.empty()) {
        const std::size_t pick = rng.below(outstanding.size());
        const Tick entered = outstanding[pick];
        outstanding[pick] = outstanding.back();
        outstanding.pop_back();
        pool.release(now, entered);
        mirror.release(now);
        pool.notify();
        mirror.notify(&mirror_log);
      }
    } else if (action < 9) {  // enqueue a waiter
      const int id = static_cast<int>(rng.below(kWaiters));
      const bool privileged = wake == WakePolicy::kWhileAvailable && rng.chance(0.25);
      pool.enqueue_waiter(&waiters[id], privileged);
      mirror.enqueue(id, privileged);
    } else {  // spurious notify
      pool.notify();
      mirror.notify(&mirror_log);
    }
    ASSERT_EQ(pool.in_use(), mirror.in_use) << "step " << step;
    ASSERT_EQ(pool.waiting(),
              mirror.waiters.size() + mirror.privileged_waiters.size())
        << "step " << step;
    ASSERT_EQ(pool_log, mirror_log) << "step " << step;
    pool.verify();
  }
  // Time-weighted occupancy must match the hand-rolled integral.
  mirror.advance(now);
  const double window = static_cast<double>(now);
  if (window > 0) {
    EXPECT_NEAR(pool.station().avg_occupancy(now),
                mirror.occupancy_integral / window, 1e-9);
  }
}

TEST(CreditPoolProperty, MatchesNaiveMirrorAcrossPolicies) {
  std::uint64_t sm = 0xC0FFEE;
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = splitmix64(sm);
    SCOPED_TRACE(trial);
    run_property_trial(seed, WakePolicy::kWhileAvailable, /*dedup=*/false,
                       /*capacity=*/12, /*reserve=*/0);
    run_property_trial(seed, WakePolicy::kWhileAvailable, /*dedup=*/false,
                       /*capacity=*/48, /*reserve=*/8);
    run_property_trial(seed, WakePolicy::kOnePerNotify, /*dedup=*/true,
                       /*capacity=*/16, /*reserve=*/0);
    run_property_trial(seed, WakePolicy::kOnePerNotify, /*dedup=*/false,
                       /*capacity=*/6, /*reserve=*/0);
  }
}

}  // namespace
}  // namespace hostnet::flow
