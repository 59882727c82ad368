// Must not compile: a closure that owns a resource is not trivially
// copyable, so a queue snapshot could not copy it byte for byte.
#include <memory>

#include "sim/simulator.hpp"

void schedule_owning(hostnet::sim::Simulator& sim, std::shared_ptr<int> counter) {
  sim.schedule(1, [counter] { ++*counter; });
}
