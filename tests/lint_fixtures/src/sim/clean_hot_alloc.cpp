// Fixture: hot-path subsystems may use vectors (growth amortizes to zero at
// steady state), placement new (allocates nothing), and explicitly justified
// setup-path containers behind an allow() directive.
#include <cstddef>
#include <map>
#include <new>
#include <vector>

struct Slot {
  int payload;
};

Slot* construct_at(void* storage) { return new (storage) Slot{0}; }

// Members, not globals: src/sim is also a handler subsystem.
struct Queue {
  std::vector<Slot> arena;
  // Beyond-horizon ticks are rare and never on the per-event path, so an
  // ordered map is acceptable here (mirrors calendar_queue.hpp).
  // hostnet-lint: allow(hot-alloc)
  std::map<long long, Slot> overflow;
};
