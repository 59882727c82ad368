#include "sim/simulator.hpp"

namespace hostnet::sim {

bool Simulator::step() {
  const Tick at = queue_.next_tick();
  if (at == CalendarQueue::kNoEvent) return false;
  const CalendarQueue::Handle h = queue_.pop(at);
  st_.now = at;
  ++st_.executed;
  queue_.fire(h);
  return true;
}

void Simulator::run_until(Tick until) {
  for (;;) {
    // Bounding next_tick keeps the queue's L0 window at or behind `until`,
    // so anything scheduled after this run (at >= now() = until) can never
    // land behind the window. See CalendarQueue::next_tick.
    const Tick at = queue_.next_tick(until);
    if (at == CalendarQueue::kNoEvent || at > until) break;
    const CalendarQueue::Handle h = queue_.pop(at);
    st_.now = at;
    ++st_.executed;
    queue_.fire(h);
  }
  if (st_.now < until) st_.now = until;
}

}  // namespace hostnet::sim
