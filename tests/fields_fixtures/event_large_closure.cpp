// Must not compile: a 72-byte closure does not fit the event's 64-byte
// inline buffer, and there is no other place to keep it.
#include <array>
#include <cstdint>

#include "sim/simulator.hpp"

void schedule_large(hostnet::sim::Simulator& sim, std::uint64_t& sum) {
  std::array<std::uint64_t, 8> payload{};
  sim.schedule(1, [payload, &sum] {
    for (const std::uint64_t v : payload) sum += v;
  });
}
