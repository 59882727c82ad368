// flow::CreditPool -- the one credit-based flow-control primitive behind
// every domain pool in the host network (DESIGN.md section 4d).
//
// The paper's core abstraction (section 4) is that every datapath domain is
// governed by the same mechanism: a sender-side pool of C credits, one
// consumed per cacheline request, replenished when the domain's receiver
// acknowledges it, bounding throughput at T <= C*64/L. Before this layer
// existed the simulator implemented that mechanism four times -- raw
// counters in cpu::Core, tracker admission in cha::Cha, waiter callbacks in
// iio::Iio, WPQ watermarks in mc::Channel -- each with its own occupancy
// integral, CHECKED ledger and wakeup logic. CreditPool unifies them:
//
//  * acquire/try_acquire/release against a fixed capacity (0 = unbounded,
//    for telemetry-only pools such as the core's C2M-Write phase);
//  * an optional privileged reserve: normal acquirers are capped at
//    capacity - reserve while privileged ones may use the whole pool (the
//    CHA write tracker's peripheral reserve);
//  * a FIFO waiter list with two deterministic wake policies --
//    kWhileAvailable drains waiters while space remains (CHA admission),
//    kOnePerNotify hands exactly one waiter its wake per release (IIO
//    device credits) -- with optional duplicate suppression (IIO devices
//    register once per blocked op; a cha::Ingress queues once per blocked
//    request, duplicates intentional);
//  * hysteresis watermark predicates (MC WPQ drain policy) instead of
//    block-at-empty admission;
//  * a pressure indicator: a 0/1 time-weighted signal set while occupancy
//    exceeds a threshold (the CHA's WPQ-backpressure measurement feeding
//    the paper's P_fill^WPQ input);
//  * uniform telemetry -- a LatencyStation giving the time-weighted
//    occupancy integral (credits in use) and the credit-hold latency -- so
//    core::DomainObservation derives identically for every domain;
//  * the HOSTNET_CHECKED CreditLedger embedded, so double-entry audits of
//    acquire/release conservation come for free at every pool.
//
// Everything is fixed-cost on the hot path: no allocation after the waiter
// ring warms up (RingBuffer retains its array), and the unchecked ledger is
// an empty shell.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "counters/station.hpp"
#include "mem/request.hpp"

namespace hostnet::flow {

class CreditPool;

/// A sender blocked on an exhausted pool. Registered (FIFO) with
/// enqueue_waiter(); woken exactly once per registration by notify().
class CreditWaiter {
 public:
  virtual ~CreditWaiter() = default;
  virtual void on_credit_available(CreditPool& pool) = 0;
};

/// A sender's two waiters, one per op, for per-op pools: the waiter queued
/// on the exhausted pool calls `(owner.*Wake)(op)`, so the wake carries
/// which op's credit freed (cha::Ingress on the CHA trackers, iio::Device
/// on the IIO buffers). The owner holds one, built from `*this`; pools
/// hold its address, so it is neither copied nor moved.
template <class Owner, void (Owner::*Wake)(mem::Op)>
class OpWaiters {
 public:
  explicit OpWaiters(Owner& owner) : read_(owner, mem::Op::kRead), write_(owner, mem::Op::kWrite) {}
  OpWaiters(const OpWaiters&) = delete;
  OpWaiters& operator=(const OpWaiters&) = delete;
  CreditWaiter& operator[](mem::Op op) { return op == mem::Op::kRead ? read_ : write_; }

 private:
  struct One final : CreditWaiter {
    One(Owner& o, mem::Op p) : owner(o), op(p) {}
    void on_credit_available(CreditPool&) override { (owner.*Wake)(op); }
    Owner& owner;
    const mem::Op op;
    HOSTNET_COMPONENT(One, owner, op)
  };
  One read_;
  One write_;
  HOSTNET_COMPONENT(OpWaiters, read_, write_)
};

/// How notify() hands freed credits to waiters.
enum class WakePolicy : std::uint8_t {
  /// Drain waiters while space remains, privileged queue first (CHA
  /// admission: one release can admit several retrying clients).
  kWhileAvailable,
  /// Pop exactly one waiter per notify (IIO device credits: one freed
  /// credit wakes one device, which re-tries and re-registers if it loses
  /// the race).
  kOnePerNotify,
};

struct CreditPoolSpec {
  const char* name = "pool";       ///< diagnostics / ledger audits
  /// The paper's credit domain the pool is (part of), declared by its owner:
  /// a core's LFB and write pools, an IIO stack's credits. Every other pool
  /// (CHA trackers, MC queues, copy-core LFBs) is interior.
  std::optional<mem::TrafficClass> domain{};
  std::uint32_t capacity = 0;      ///< credits; 0 = unbounded (telemetry only)
  std::uint32_t reserve = 0;       ///< privileged-only headroom at the top
  WakePolicy wake = WakePolicy::kWhileAvailable;
  bool dedup_waiters = false;      ///< drop duplicate waiter registrations
  /// Drain-buffer watermarks (MC WPQ): the consumer switches on above_high()
  /// and back off at_or_below_low().
  std::uint32_t high_watermark = 0;
  std::uint32_t low_watermark = 0;
  /// Set the 0/1 pressure signal while in_use > threshold; -1 disables.
  std::int64_t pressure_threshold = -1;

  bool operator==(const CreditPoolSpec&) const = default;
};

class CreditPool {
 public:
  CreditPool() = default;
  explicit CreditPool(const CreditPoolSpec& spec) { configure(spec); }

  /// Setup-path only: fix the pool's identity and capacity.
  void configure(const CreditPoolSpec& spec) {
    spec_ = spec;
    ledger_.set_capacity(spec.capacity);
  }

  const CreditPoolSpec& spec() const { return spec_; }
  const char* name() const { return spec_.name; }
  std::uint32_t capacity() const { return spec_.capacity; }
  std::uint32_t in_use() const { return in_use_; }

  /// Is a credit available? Normal acquirers may not touch the reserve.
  bool has_space(bool privileged = false) const {
    if (spec_.capacity == 0) return true;  // unbounded / telemetry-only
    const std::uint32_t cap =
        privileged ? spec_.capacity
        : spec_.capacity > spec_.reserve ? spec_.capacity - spec_.reserve
                                         : 0;
    return in_use_ < cap;
  }

  /// Consume one credit (caller checked has_space(), or the pool is a
  /// bounded buffer whose bound the caller enforces structurally).
  void acquire(Tick now) {
    ++in_use_;
    ledger_.acquire();
    station_.enter(now);
    update_pressure(now);
  }

  bool try_acquire(Tick now, bool privileged = false) {
    if (!has_space(privileged)) return false;
    acquire(now);
    return true;
  }

  /// Replenish one credit, recording the hold latency (`entered` is when
  /// the credit was acquired -- caller-provided, the pool keeps no
  /// per-credit state). Does NOT wake waiters: call notify() after, at the
  /// site's chosen point, so wake ordering stays explicit.
  void release(Tick now, Tick entered) {
    assert(in_use_ > 0);
    --in_use_;
    ledger_.release();
    station_.leave(now, entered);
    update_pressure(now);
  }

  /// Occupancy-only replenish: no hold-latency sample (pools whose latency
  /// is measured elsewhere, e.g. the CHA's per-traffic-class stations).
  void release(Tick now) {
    assert(in_use_ > 0);
    --in_use_;
    ledger_.release();
    station_.leave_untimed(now);
    update_pressure(now);
  }

  /// FIFO-register a waiter; privileged waiters are drained first and may
  /// use the reserve. With dedup_waiters, a waiter already queued (in the
  /// same queue) is not added again.
  void enqueue_waiter(CreditWaiter* w, bool privileged = false) {
    RingBuffer<CreditWaiter*>& q = privileged ? privileged_waiters_ : waiters_;
    if (spec_.dedup_waiters) {
      for (std::size_t i = 0; i < q.size(); ++i)
        if (q[i] == w) return;  // already waiting
    }
    q.push_back(w);
  }

  std::size_t waiting() const { return waiters_.size() + privileged_waiters_.size(); }

  /// Wake waiters per the pool's WakePolicy. Reentrant calls (a woken
  /// sender's acquire path releasing back into this pool, e.g. a DDIO hit
  /// freeing the write tracker mid-wake) are absorbed: the outer loop's
  /// has_space() re-check hands the freed credit on.
  void notify() {
    if (notifying_.set) return;
    notifying_.set = true;
    if (spec_.wake == WakePolicy::kOnePerNotify) {
      if (!waiters_.empty()) {
        CreditWaiter* w = waiters_.front();
        waiters_.pop_front();
        w->on_credit_available(*this);
      }
    } else {
      while (!privileged_waiters_.empty() && has_space(/*privileged=*/true)) {
        CreditWaiter* w = privileged_waiters_.front();
        privileged_waiters_.pop_front();
        w->on_credit_available(*this);
      }
      while (!waiters_.empty() && has_space(/*privileged=*/false)) {
        CreditWaiter* w = waiters_.front();
        waiters_.pop_front();
        w->on_credit_available(*this);
      }
    }
    notifying_.set = false;
  }

  // -- hysteresis watermarks --------------------------------------------------
  bool above_high() const { return in_use_ >= spec_.high_watermark; }
  bool at_or_below_low() const { return in_use_ <= spec_.low_watermark; }

  // -- telemetry ---------------------------------------------------------------
  /// Occupancy integral (credits in use over time) + credit-hold latency.
  counters::LatencyStation& station() { return station_; }
  const counters::LatencyStation& station() const { return station_; }

  /// Fraction of the window the pressure signal was set (pressure_threshold
  /// pools only; 0 otherwise).
  double pressure_fraction(Tick now) const { return pressure_.average(now); }

  /// Begin a fresh measurement window (occupancy level persists).
  void reset_telemetry(Tick now) {
    station_.reset(now);
    pressure_.reset(now);
  }

  /// Checked-build audit (no-op otherwise): acquire/release conservation
  /// against the in-use count, within capacity.
  void verify() const { ledger_.verify(in_use_, spec_.name); }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // A pool is a plain value inside its owner's State and is checkpointed by
  // copying it whole. The waiter rings hold raw CreditWaiter* into
  // component-embedded adapters, so a copy is valid only in the host that
  // produced it (enforced by the owner token in core::HostSnapshot). Copies
  // happen at quiesce points (between events), where no notify() is on the
  // stack; NotifyFlag asserts that on every copy.
  bool operator==(const CreditPool&) const = default;

 private:
  void update_pressure(Tick now) {
    if (spec_.pressure_threshold < 0) return;
    pressure_.set(now, static_cast<std::int64_t>(in_use_) > spec_.pressure_threshold ? 1 : 0);
  }

  /// notify()'s reentrancy guard. Copying it is a checkpoint save or
  /// restore, which must not happen while a notify() is running.
  struct NotifyFlag {
    bool set = false;
    NotifyFlag() = default;
    NotifyFlag(const NotifyFlag& o) {
      assert(!o.set && "pool copied while notifying");
      (void)o;
    }
    NotifyFlag& operator=(const NotifyFlag& o) {
      assert(!set && !o.set && "pool copied while notifying");
      (void)o;
      return *this;
    }
    bool operator==(const NotifyFlag&) const { return true; }
  };

  CreditPoolSpec spec_{};
  std::uint32_t in_use_ = 0;
  CreditLedger ledger_;  ///< empty shell unless HOSTNET_CHECKED
  RingBuffer<CreditWaiter*> waiters_;
  RingBuffer<CreditWaiter*> privileged_waiters_;
  NotifyFlag notifying_;

  counters::LatencyStation station_;
  TimeWeighted pressure_;  ///< 0/1 while in_use exceeds the threshold
};

}  // namespace hostnet::flow
