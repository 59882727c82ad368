// Per-memory-channel counters: the inputs of the paper's analytical formula
// (Table 2) plus the root-cause metrics of section 5 (row miss ratio, bank
// load imbalance, WPQ-full fraction, mode switches).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "mem/request.hpp"

namespace hostnet::counters {

struct McChannelCounters {
  McChannelCounters() = default;
  explicit McChannelCounters(std::uint32_t banks, std::uint32_t wpq_capacity) {
    bank_window_counts.assign(banks, 0);
    wpq_occ.set_cap(wpq_capacity);
  }

  TimeWeighted rpq_occ;
  TimeWeighted wpq_occ;  ///< cap set to capacity so fraction_at_cap == "WPQ full"

  std::uint64_t lines_read = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t switch_cycles = 0;  ///< completed write->read transitions

  // Row-buffer outcome counts, split by op (formula inputs #ACT, #PRE_conflict).
  std::uint64_t act_read = 0;
  std::uint64_t act_write = 0;
  std::uint64_t pre_conflict_read = 0;
  std::uint64_t pre_conflict_write = 0;
  std::uint64_t row_hit_read = 0;
  std::uint64_t row_hit_write = 0;

  // Bank-load sampling: reads per bank, snapshotted every `sample_every`
  // channel reads into a max/mean "bank deviation" sample over a 4-bank
  // subset -- mirroring the paper's methodology, which monitors 4 banks of
  // one DIMM due to hardware-counter limits (section 5.1, footnote 3).
  std::uint64_t sample_every = 1000;
  std::uint32_t sample_banks = 4;
  std::uint64_t reads_since_sample = 0;
  std::vector<std::uint64_t> bank_window_counts;
  SampleSet bank_deviation;

  bool operator==(const McChannelCounters&) const = default;

  void on_read_issued(std::uint32_t bank) {
    ++lines_read;
    ++reads_since_sample;
    ++bank_window_counts[bank];
    if (reads_since_sample >= sample_every) {
      const std::size_t n =
          std::min<std::size_t>(sample_banks, bank_window_counts.size());
      std::uint64_t total = 0;
      std::uint64_t max = 0;
      for (std::size_t i = 0; i < n; ++i) {
        total += bank_window_counts[i];
        max = std::max(max, bank_window_counts[i]);
      }
      if (total > 0) {
        const double mean = static_cast<double>(total) / static_cast<double>(n);
        bank_deviation.add(static_cast<double>(max) / mean);
      }
      for (auto& c : bank_window_counts) c = 0;
      reads_since_sample = 0;
    }
  }

  void on_row_result(mem::Op op, bool hit, bool conflict) {
    if (op == mem::Op::kRead) {
      if (hit) {
        ++row_hit_read;
      } else {
        ++act_read;
        if (conflict) ++pre_conflict_read;
      }
    } else {
      if (hit) {
        ++row_hit_write;
      } else {
        ++act_write;
        if (conflict) ++pre_conflict_write;
      }
    }
  }

  double row_miss_ratio_read() const {
    const std::uint64_t total = row_hit_read + act_read;
    return total ? static_cast<double>(act_read) / static_cast<double>(total) : 0.0;
  }
  double row_miss_ratio_write() const {
    const std::uint64_t total = row_hit_write + act_write;
    return total ? static_cast<double>(act_write) / static_cast<double>(total) : 0.0;
  }

  void reset(Tick now) {
    rpq_occ.reset(now);
    wpq_occ.reset(now);
    lines_read = lines_written = 0;
    switch_cycles = 0;
    act_read = act_write = 0;
    pre_conflict_read = pre_conflict_write = 0;
    row_hit_read = row_hit_write = 0;
    reads_since_sample = 0;
    for (auto& c : bank_window_counts) c = 0;
    bank_deviation.reset();
  }
};

}  // namespace hostnet::counters
