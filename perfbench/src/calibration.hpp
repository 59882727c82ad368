// Speed calibration for a shared, noisy host.
//
// On a virtual machine that shares its cores with other tenants the speed
// of the same code drifts by +-20% over seconds to minutes (frequency and
// cache contention; steal time stays ~0, so CPU time drifts the same way).
// Longer runs do not average that out. The benchmark therefore runs a fixed
// reference kernel, which never calls the simulator library, between
// consecutive operations, and scales each operation's host time by
// kReferenceMs / (mean of the calibrations just before and after it). A
// change to the library moves the scaled times as it moves the raw ones; a
// slower moment of the machine moves both the operation and its
// calibrations, and cancels.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Host time of one calibration on the reference machine (a 2.0 GHz Xeon
/// VM core at a quiet moment), in ms. Scaled host times read as ms on that
/// machine.
inline constexpr double kReferenceMs = 3.0;

/// The reference kernel: a small discrete-event loop over a binary heap with
/// random read-modify-writes of a 4 MiB table -- the same kind of work as
/// the simulator (queue operations, branches, cache misses). Returns its
/// host time in ms. Before the clock starts, one pass over the whole table
/// sets the cache state itself, so the time does not depend on how much of
/// the table the operation before it evicted.
inline double calibration_ms() {
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  static std::vector<std::uint64_t> table(1u << 19);
  std::vector<Ev> storage;
  storage.reserve(4096);
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q(std::greater<>{}, std::move(storage));
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) q.push({next() & 0xffff, i});
  for (std::uint64_t& cell : table) cell ^= 1;
  const std::int64_t t0 = now_ns();
  for (int n = 0; n < 20000; ++n) {
    const auto [t, id] = q.top();
    q.pop();
    std::uint64_t& cell = table[(next() ^ id) & (table.size() - 1)];
    cell += t;
    q.push({t + 1 + (cell & 1023), id});
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  volatile std::uint64_t sink = table[x & 7];
  (void)sink;
  return ms;
}

}  // namespace perfbench
