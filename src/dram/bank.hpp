// DRAM bank state machine.
//
// Each bank has a row buffer that holds one row. Accessing a cacheline
// whose row is not in the buffer requires an Activate (ACT, tRCD); if a
// different row is open it must first be flushed with a Precharge
// (PRE, tRP). These bank-level processing delays are the "tProc" the paper
// shows can block requests even while the channel data bus is idle.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/units.hpp"
#include "dram/timing.hpp"

namespace hostnet::dram {

enum class RowResult : std::uint8_t {
  kHit,           ///< row already open
  kMissEmpty,     ///< no row open: ACT only
  kMissConflict,  ///< different row open: PRE then ACT
};

class Bank {
 public:
  /// Prepare the bank so `row` is open. Returns the access classification;
  /// `ready_at()` afterwards gives the time at which a column command for
  /// this row may issue. `now` is when the memory controller starts
  /// preparing the bank (>= previous ready time is not required; the bank
  /// serializes internally).
  RowResult prepare(Tick now, std::uint64_t row, const Timing& t) {
    Tick start = std::max(now, busy_until_);
    // Adaptive page-close policy: a row left idle beyond the timeout has
    // been closed in the background (precharge already paid), so the next
    // access activates a fresh row (miss-empty, ACT only). This is what
    // makes bursty interruptions (write drains) destroy read row locality.
    if (has_open_row_ && now - last_use_ > t.t_page_close_idle) {
      has_open_row_ = false;
      write_recovery_until_ = 0;
    }
    if (has_open_row_ && open_row_ == row) {
      // Row hit: column command can go as soon as the bank is free.
      ready_at_ = start;
      return RowResult::kHit;
    }
    RowResult result = RowResult::kMissEmpty;
    if (has_open_row_) {
      // Precharge respects tRAS (minimum row-open time) and tWR (write
      // recovery after the last write to the open row).
      Tick pre_start = std::max({start, activated_at_ + t.t_ras, write_recovery_until_});
      start = pre_start + t.t_rp;
      result = RowResult::kMissConflict;
    }
    activated_at_ = start;
    busy_until_ = start + t.t_rcd;
    ready_at_ = busy_until_;
    open_row_ = row;
    has_open_row_ = true;
    last_use_ = busy_until_;
    return result;
  }

  /// Record a column access (read or write) to the open row at time `at`.
  void column_access(Tick at, bool is_write, const Timing& t) {
    busy_until_ = std::max(busy_until_, at);
    last_use_ = std::max(last_use_, at);
    if (is_write) write_recovery_until_ = std::max(write_recovery_until_, at + t.t_wr);
  }

  Tick ready_at() const { return ready_at_; }
  bool has_open_row() const { return has_open_row_; }
  std::uint64_t open_row() const { return open_row_; }
  bool operator==(const Bank&) const = default;

 private:
  bool has_open_row_ = false;
  std::uint64_t open_row_ = 0;
  Tick busy_until_ = 0;            ///< bank command bus / internal busy
  Tick ready_at_ = 0;              ///< when the last prepared row is usable
  Tick activated_at_ = 0;
  Tick write_recovery_until_ = 0;
  Tick last_use_ = 0;
};

}  // namespace hostnet::dram
