// DDIO (Data Direct I/O) model: the slice of the LLC that inbound DMA
// writes are allowed to allocate into (a small number of ways; Farshin et
// al. [18] and the paper's section 2.1).
//
// Behaviour modeled:
//  * P2M writes look up the DDIO region. A hit absorbs the write in the
//    LLC (no memory traffic). A miss allocates, evicting the set's LRU
//    line, whose *write-back* is what actually reaches the memory
//    controller.
//  * P2M reads never allocate (they are served from memory on a miss with
//    no LLC fill), so DDIO is a no-op for them -- matching the paper's
//    Appendix B observation that DDIO on/off is identical under P2M-Read.
//
// For the paper's workloads (8 MB sequential requests, buffers far larger
// than the DDIO capacity) every write misses, so the *volume* of memory
// writes is unchanged; what changes is the address stream: victims come out
// in per-set LRU order under a hashed set index, destroying the DMA
// stream's row locality. This is the mechanism we use to reproduce the
// paper's (explicitly unexplained) Figure 2 observation that DDIO worsens
// C2M degradation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace hostnet::cache {

class DdioCache {
 public:
  /// `capacity_bytes` = ways x sets x 64B region reserved for DDIO;
  /// `ways` = associativity of that region.
  DdioCache(std::uint64_t capacity_bytes, std::uint32_t ways)
      : ways_(ways), sets_(static_cast<std::uint32_t>(capacity_bytes / kCachelineBytes / ways)) {
    lines_.assign(static_cast<std::size_t>(sets_) * ways_, Line{});
  }

  struct WriteOutcome {
    bool hit = false;                          ///< absorbed in LLC, no memory write
    std::optional<std::uint64_t> writeback;    ///< evicted dirty line to write to memory
  };

  /// Inbound DMA write of cacheline `addr`.
  WriteOutcome write(std::uint64_t addr, Tick now) {
    const std::uint64_t line = addr / kCachelineBytes;
    const std::uint32_t set = set_index(line);
    Line* lru = nullptr;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Line& l = lines_[static_cast<std::size_t>(set) * ways_ + w];
      if (l.valid && l.line == line) {
        l.last_use = now;
        return WriteOutcome{true, std::nullopt};
      }
      if (!lru || !l.valid || (lru->valid && l.last_use < lru->last_use)) lru = &l;
    }
    WriteOutcome out;
    if (lru->valid) out.writeback = lru->line * kCachelineBytes;  // dirty: DMA-written
    lru->valid = true;
    lru->line = line;
    lru->last_use = now;
    return out;
  }

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  bool operator==(const DdioCache&) const = default;

 private:
  struct Line {
    bool valid = false;
    std::uint64_t line = 0;
    Tick last_use = 0;
    bool operator==(const Line&) const = default;
  };

  /// Hashed set index (real LLCs hash the address into slices/sets, which is
  /// what scrambles the eviction stream's address order).
  std::uint32_t set_index(std::uint64_t line) const {
    std::uint64_t z = line;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(z % sets_);
  }

  std::uint32_t ways_;
  std::uint32_t sets_;
  std::vector<Line> lines_;
};

}  // namespace hostnet::cache
