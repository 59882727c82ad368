// Discrete-event simulation kernel.
//
// A single Simulator owns the clock and the pending-event queue. Events are
// bucketed by tick with FIFO same-tick buckets (see calendar_queue.hpp), so
// simulations are deterministic by construction: two events scheduled for
// the same tick fire in the order they were scheduled. A scheduled closure
// is constructed once, in its queue node, and fired there; the
// schedule/fire path performs no heap allocation for closures up to
// Event::kInlineBytes once the queue's node pool has warmed up.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return st_.now; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  template <typename F>
  void schedule_at(Tick at, F&& fn) {
    assert(at >= st_.now && "cannot schedule into the past");
    HOSTNET_INVARIANT(at >= st_.now,
                      "simulator time monotonicity: event scheduled at tick %lld "
                      "but the clock is already at %lld",
                      static_cast<long long>(at), static_cast<long long>(st_.now));
    queue_.emplace(at, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` ticks from now.
  template <typename F>
  void schedule(Tick delay, F&& fn) {
    HOSTNET_INVARIANT(delay <= std::numeric_limits<Tick>::max() - st_.now,
                      "simulator tick overflow: a delay of %lld ticks from tick %lld wraps",
                      static_cast<long long>(delay), static_cast<long long>(st_.now));
    schedule_at(st_.now + delay, std::forward<F>(fn));
  }

  /// Run events until the queue is empty or the clock passes `until`.
  /// The clock is left at `until`, even if the queue dried up earlier.
  void run_until(Tick until);

  /// Run the single next event; returns false when no events remain.
  bool step();

  std::uint64_t events_executed() const { return st_.executed; }
  std::size_t pending() const { return queue_.size(); }

  /// Checked-build audit of the event queue (no-op otherwise).
  void verify_invariants() const { queue_.verify_invariants(); }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct State {
    Tick now = 0;
    std::uint64_t executed = 0;
    bool operator==(const State&) const = default;
  };
  struct Snapshot {
    State st;
    CalendarQueue::Snapshot queue;
    /// Equality is audit_identical(): closures compare as the queue audit
    /// compares them.
    bool operator==(const Snapshot& o) const { return audit_identical(*this, o); }
  };

  void save_state(Snapshot& out) const {
    out.st = st_;
    queue_.save_state(out.queue);
  }
  void load_state(const Snapshot& s) {
    st_ = s.st;
    queue_.load_state(s.queue);
  }
  static bool audit_identical(const Snapshot& a, const Snapshot& b) {
    return a.st == b.st && CalendarQueue::audit_identical(a.queue, b.queue);
  }

 private:
  State st_;
  CalendarQueue queue_;
};

HOSTNET_SNAPSHOT_COVERS(Simulator);

}  // namespace hostnet::sim
