#include "sim/simulator.hpp"

namespace hostnet::sim {

bool Simulator::step() {
  const CalendarQueue::Popped e = queue_.pop_next();
  if (e.h == CalendarQueue::kNil) return false;
  st_.now = e.at;
  ++st_.executed;
  queue_.fire(e.h);
  return true;
}

void Simulator::run_until(Tick until) {
  for (;;) {
    // Bounding pop_next keeps the queue's L0 window at or behind `until`,
    // so anything scheduled after this run (at >= now() = until) can never
    // land behind the window. See CalendarQueue::pop_next.
    const CalendarQueue::Popped e = queue_.pop_next(until);
    if (e.h == CalendarQueue::kNil) break;
    st_.now = e.at;
    ++st_.executed;
    queue_.fire(e.h);
  }
  if (st_.now < until) st_.now = until;
}

}  // namespace hostnet::sim
