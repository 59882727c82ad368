// The memory request message that traverses the host network.
//
// Every data transfer in the host network is decomposed into cacheline
// (64 B) requests, matching the granularity at which the IIO and the caches
// operate (paper section 3). A request is identified by its source
// (compute vs. peripheral) and type (read vs. write); that pair determines
// which flow-control domain the request belongs to and therefore where its
// credit is released:
//
//   C2M-Read   : completion fires when data returns to the core (LFB freed)
//   C2M-Write  : completion fires when the CHA admits the write
//   P2M-Read   : completion fires when data returns to the IIO
//   P2M-Write  : completion fires when the MC write queue admits the write
#pragma once

#include <cstdint>

#include "common/fields.hpp"
#include "common/units.hpp"

namespace hostnet::mem {

enum class Op : std::uint8_t { kRead, kWrite };
enum class Source : std::uint8_t { kCpu, kPeripheral };

/// A contiguous physical-address range a workload accesses. Distinct
/// workloads get disjoint regions (distinct applications access different
/// address spaces -- the root of the row-locality interference in §5.1).
struct Region {
  std::uint64_t base = 0;
  std::uint64_t bytes = 1ull << 30;
  std::uint64_t lines() const { return bytes / kCachelineBytes; }
  HOSTNET_FIELDS(Region, base, bytes)
};

// Address-space layout: distinct workloads use disjoint regions (the paper's
// apps access different address spaces; intermixing them at DRAM is what
// degrades row locality). The workload zoo (workloads/workloads.hpp) and the
// NIC's default DMA target use them.
inline Region c2m_core_region(std::uint32_t core_index) {
  return Region{(4ull + core_index) << 30, 1ull << 30};
}
inline Region c2m_shared_region() { return Region{40ull << 30, 5ull << 30}; }
inline Region p2m_region() { return Region{128ull << 30, 4ull << 30}; }

/// Traffic class = (source, op); the four quadrant datapaths.
enum class TrafficClass : std::uint8_t {
  kC2MRead = 0,
  kC2MWrite = 1,
  kP2MRead = 2,
  kP2MWrite = 3,
};

constexpr TrafficClass traffic_class(Source s, Op o) {
  if (s == Source::kCpu) return o == Op::kRead ? TrafficClass::kC2MRead : TrafficClass::kC2MWrite;
  return o == Op::kRead ? TrafficClass::kP2MRead : TrafficClass::kP2MWrite;
}

constexpr const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kC2MRead: return "C2M-Read";
    case TrafficClass::kC2MWrite: return "C2M-Write";
    case TrafficClass::kP2MRead: return "P2M-Read";
    case TrafficClass::kP2MWrite: return "P2M-Write";
  }
  return "?";
}

inline constexpr int kNumTrafficClasses = 4;

struct Request;

/// Receives the domain-level completion of a request (credit release point).
class Completer {
 public:
  virtual ~Completer() = default;
  virtual void complete(const Request& req, Tick now) = 0;
};

struct Request {
  std::uint64_t addr = 0;       ///< cacheline-aligned physical address
  Op op = Op::kRead;
  Source source = Source::kCpu;
  std::uint16_t origin = 0;     ///< issuing core id or device id
  Tick created = 0;             ///< domain credit allocation time
  Completer* completer = nullptr;
  std::uint64_t tag = 0;        ///< opaque per-origin tag (e.g. slot index)
  Tick cha_accepted = 0;        ///< set by the CHA at admission (measurement)

  TrafficClass cls() const { return traffic_class(source, op); }
  bool operator==(const Request&) const = default;
};

}  // namespace hostnet::mem
