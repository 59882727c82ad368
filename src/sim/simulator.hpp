// Discrete-event simulation kernel.
//
// A single Simulator owns the clock and the pending-event queue. Events are
// bucketed by tick with FIFO same-tick buckets (see calendar_queue.hpp), so
// simulations are deterministic by construction: two events scheduled for
// the same tick fire in the order they were scheduled. A scheduled closure
// (at most Event::kInlineBytes, trivially copyable) is constructed once, in
// its queue node, and fired there; the schedule/fire path performs no heap
// allocation once the queue's node pool has warmed up.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "common/units.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class Tracer;

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

  /// The trace sink this simulation's components write to, if any (null by
  /// default; see sim/trace.hpp). Each host traces to its own.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct State {
    Tick now = 0;
    std::uint64_t executed = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, now, executed)
  };

 private:
  State st_;
  CalendarQueue queue_;
  Tracer* tracer_ = nullptr;
  // tracer_ is an observer, not state: it records what the run does and no
  // event reads it to decide anything, so a checkpoint neither saves nor
  // restores it.
  HOSTNET_COMPONENT_EXEMPT(tracer_)
  HOSTNET_COMPONENT(Simulator, st_, queue_, tracer_)
};

}  // namespace hostnet::sim
