// DRAM timing parameters (per channel).
//
// Only the constraints the paper reasons about are modeled (section 3,
// "DRAM operation" and the analytical formula of section 6):
//   tTrans -- cacheline transfer time on the half-duplex channel data bus
//   tCAS   -- column access latency for reads (command to first data)
//   tRCD   -- activate (row load) time       ("tACT" in the paper formula)
//   tRP    -- precharge (row flush) time     ("tPRE" in the paper formula)
//   tWTR / tRTW -- write<->read mode switch penalties ("switching delay")
//   tRAS   -- minimum row-open time before a precharge may start
//   tWR    -- write recovery before precharging a bank written to
#pragma once

#include <cstdint>

#include "common/fields.hpp"
#include "common/units.hpp"

namespace hostnet::dram {

struct Timing {
  Tick t_trans = ns(2.73);
  Tick t_cas = ns(13.75);
  Tick t_rcd = ns(13.75);
  Tick t_rp = ns(13.75);
  Tick t_wtr = ns(10.0);
  Tick t_rtw = ns(10.0);
  Tick t_ras = ns(32.0);
  Tick t_wr = ns(15.0);
  /// Adaptive page-close: a row idle this long is closed in the background.
  Tick t_page_close_idle = ns(100.0);

  /// Per-request bank processing delay for a row conflict (the paper's
  /// tProc ~ 45 ns on DDR4-2933: tRP + tRCD + tCAS).
  Tick t_proc() const { return t_rp + t_rcd + t_cas; }
  HOSTNET_FIELDS(Timing, t_trans, t_cas, t_rcd, t_rp, t_wtr, t_rtw, t_ras, t_wr, t_page_close_idle)
};

/// DDR4-2933 (Cascade Lake testbed): 2933 MT/s x 8 B = 23.46 GB/s/channel,
/// 64 B transfer = 2.73 ns.
inline Timing ddr4_2933() { return Timing{}; }

/// DDR4-3200 (Ice Lake testbed): 25.6 GB/s/channel, 64 B transfer = 2.5 ns;
/// tCAS/tRCD/tRP stay at DDR4-2933's 13.75 ns.
inline Timing ddr4_3200() {
  Timing t;
  t.t_trans = ns(2.5);
  return t;
}

}  // namespace hostnet::dram
