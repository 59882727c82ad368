// Physical-address -> (channel, bank, row, column) mapping.
//
// Layout (from low address bits to high), mirroring DDR4 practice on Intel
// servers:
//
//   [64B offset][chunk within channel interleave][channel]
//   [bank-interleave chunk -> bank][column-high][row]
//
// Consecutive cachelines interleave across channels every
// `channel_interleave_bytes`, then fill one bank for
// `bank_interleave_bytes` (default: one full 8 KB row) before the hashed
// bank index moves on. A sequential stream therefore opens a row, streams
// it end to end, and moves to the next (pseudo-random) bank -- near-perfect
// row locality in isolation (<4% row misses, Figure 7c). Interleaved
// streams collide in banks and, combined with the MC's adaptive page-close
// policy under bursty write drains, lose that locality -- the paper's
// root cause for queueing before bandwidth saturation (section 5.1).
// Smaller `bank_interleave_bytes` values are exposed for ablations.
//
// Bank-address hashing (DRAMA [56]): the bank index is XOR-permuted with
// folded row bits, so different regions use different bank orders. The
// hash is static and does not guarantee balanced load within a window --
// the second root cause (bank load imbalance) of MC queueing before
// bandwidth saturation. `kLinear` (no row fold) is the ablation baseline.
#pragma once

#include <bit>
#include <cstdint>

#include "common/units.hpp"

namespace hostnet::dram {

enum class BankHash : std::uint8_t { kLinear, kXorHash };

struct Coord {
  std::uint32_t channel = 0;
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  std::uint32_t col = 0;

  bool operator==(const Coord&) const = default;
};

class AddressMap {
 public:
  /// All counts must be powers of two.
  AddressMap(std::uint32_t channels, std::uint32_t banks_per_channel,
             std::uint32_t row_bytes, std::uint32_t channel_interleave_bytes,
             BankHash hash, std::uint32_t bank_interleave_bytes = 8192)
      : channels_(channels),
        banks_(banks_per_channel),
        row_lines_(row_bytes / kCachelineBytes),
        ch_ilv_lines_(channel_interleave_bytes / kCachelineBytes),
        bank_ilv_lines_(bank_interleave_bytes / kCachelineBytes),
        hash_(hash),
        ch_shift_(std::countr_zero(ch_ilv_lines_)),
        ch_bits_(std::countr_zero(channels_)),
        bank_chunk_shift_(std::countr_zero(bank_ilv_lines_)),
        bank_bits_(std::countr_zero(banks_)),
        colhigh_bits_(std::countr_zero(row_lines_ / bank_ilv_lines_)) {}

  std::uint32_t channels() const { return channels_; }
  std::uint32_t banks_per_channel() const { return banks_; }
  std::uint32_t row_lines() const { return row_lines_; }

  /// decode(addr).channel without the bank, row and column: the CHA's
  /// routing needs only the channel.
  std::uint32_t channel_of(std::uint64_t addr) const {
    return static_cast<std::uint32_t>(((addr / kCachelineBytes) >> ch_shift_) & (channels_ - 1));
  }

  Coord decode(std::uint64_t addr) const {
    const std::uint64_t line = addr / kCachelineBytes;
    const std::uint64_t ch_chunk = line >> ch_shift_;
    Coord c;
    c.channel = static_cast<std::uint32_t>(ch_chunk & (channels_ - 1));
    // Contiguous line index within this channel.
    const std::uint64_t local =
        ((ch_chunk >> ch_bits_) << ch_shift_) | (line & (ch_ilv_lines_ - 1));
    const std::uint64_t chunk = local >> bank_chunk_shift_;
    const auto bank_raw = static_cast<std::uint32_t>(chunk & (banks_ - 1));
    const std::uint64_t col_high = (chunk >> bank_bits_) & ((1ull << colhigh_bits_) - 1);
    c.row = chunk >> (bank_bits_ + colhigh_bits_);
    c.col = static_cast<std::uint32_t>((col_high << bank_chunk_shift_) |
                                       (local & (bank_ilv_lines_ - 1)));
    switch (hash_) {
      case BankHash::kLinear:
        c.bank = bank_raw;
        break;
      case BankHash::kXorHash: {
        std::uint64_t fold = c.row;
        std::uint64_t h = bank_raw;
        while (fold != 0) {
          h ^= fold;
          fold >>= bank_bits_;
        }
        c.bank = static_cast<std::uint32_t>(h & (banks_ - 1));
        break;
      }
    }
    return c;
  }

 private:
  std::uint32_t channels_;
  std::uint32_t banks_;
  std::uint32_t row_lines_;
  std::uint32_t ch_ilv_lines_;
  std::uint32_t bank_ilv_lines_;
  BankHash hash_;
  std::uint32_t ch_shift_;
  std::uint32_t ch_bits_;
  std::uint32_t bank_chunk_shift_;
  std::uint32_t bank_bits_;
  std::uint32_t colhigh_bits_;
};

}  // namespace hostnet::dram
