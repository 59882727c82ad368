// Core unit types shared across the simulator.
//
// Time is an integer count of picoseconds so that event ordering is exact and
// runs are reproducible; DRAM timing parameters (e.g. tTrans = 2.73 ns) are
// representable without rounding surprises.
#pragma once

#include <cstdint>

namespace hostnet {

/// Simulated time in picoseconds.
using Tick = std::int64_t;

inline constexpr Tick kPicosecond = 1;
inline constexpr Tick kNanosecond = 1'000;
inline constexpr Tick kMicrosecond = 1'000'000;
inline constexpr Tick kMillisecond = 1'000'000'000;
inline constexpr Tick kSecond = 1'000 * kMillisecond;

/// Cacheline size in bytes; the unit of transfer everywhere in the host
/// network (the paper's credit law is expressed in 64 B cachelines).
inline constexpr std::uint64_t kCachelineBytes = 64;

constexpr Tick ns(double v) { return static_cast<Tick>(v * kNanosecond); }
constexpr Tick us(double v) { return static_cast<Tick>(v * kMicrosecond); }
constexpr Tick ms(double v) { return static_cast<Tick>(v * kMillisecond); }

constexpr double to_ns(Tick t) { return static_cast<double>(t) / kNanosecond; }
constexpr double to_us(Tick t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double to_ms(Tick t) { return static_cast<double>(t) / kMillisecond; }
constexpr double to_s(Tick t) { return static_cast<double>(t) / kSecond; }

/// Throughput of `bytes` transferred over `dt` ticks, in GB/s (1e9 bytes/s).
constexpr double gb_per_s(std::uint64_t bytes, Tick dt) {
  if (dt <= 0) return 0.0;
  return static_cast<double>(bytes) * 1000.0 / static_cast<double>(dt);
}

/// Time to serialize `bytes` at `rate_gb_per_s` (GB/s), in ticks.
constexpr Tick serialization_ticks(std::uint64_t bytes, double rate_gb_per_s) {
  return static_cast<Tick>(static_cast<double>(bytes) * 1000.0 / rate_gb_per_s);
}

}  // namespace hostnet
