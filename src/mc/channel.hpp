// One memory-channel scheduler of the memory controller.
//
// Mirrors the MC behaviour the paper reverse-engineers (section 3):
//  * separate Read Pending Queue (RPQ) and Write Pending Queue (WPQ);
//  * the half-duplex channel operates in read mode or write mode, switching
//    costs tRTW / tWTR during which the data bus is idle;
//  * write drains are governed by WPQ high/low watermarks (writes are
//    asynchronous; they are buffered and drained in bursts);
//  * banks prepare rows (PRE/ACT) in parallel and independently of the data
//    bus, in per-bank FIFO order; the data bus issues the *oldest row-ready*
//    request of the active mode (FR-FCFS-lite). Requests can therefore be
//    "blocked on bank processing even when the memory channel is idle"
//    (section 5.1) -- the root cause of queueing before bandwidth saturation.
//
// Hot-path layout (DESIGN.md section 4b): the queues are fixed-capacity
// slot arenas (slot_queue.hpp) -- entries never move, FIFO order is an
// intrusive age list, the FR-FCFS scan walks only the prepped sublist, the
// bank prep visits only the free banks that entries wait on (the set bits
// of a per-queue waiting-bank set masked by the owned-bank set, one word per
// 64 banks) and preps the head of each such bank's age-ordered waiting
// list, and the next-kick time comes from an incrementally maintained
// earliest-row_ready_at tracker. A kick scans and issues only when it can
// act, and a wake-up due at the tick of the write completion it just filed
// rides that completion instead of a calendar event of its own. Scheduling
// decisions are bit-identical to the original deque scans; only the work
// per decision changed.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "counters/mc_counters.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/timing.hpp"
#include "flow/credit_pool.hpp"
#include "mc/slot_queue.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::mc {

struct ChannelConfig {
  std::uint32_t rpq_capacity = 48;
  std::uint32_t wpq_capacity = 24;
  std::uint32_t wpq_high_wm = 22;   ///< enter write drain at this occupancy
  std::uint32_t wpq_low_wm = 8;     ///< leave write drain at this occupancy
  Tick max_write_age = ns(400);     ///< force a drain for stale writes
  /// Read priority: after a write drain, serve reads for at least
  /// `dwell_per_queued_read x RPQ occupancy at switch time` before the next
  /// high-watermark drain (idle drains are exempt). Under read pressure the
  /// MC favors (synchronous) reads over (posted) writes, pushing sustained
  /// write overload back into the CHA tracker; at low read load drains are
  /// unimpeded.
  Tick dwell_per_queued_read = ns(12);
  Tick read_dwell_cap = ns(150);  ///< upper bound on the read-priority dwell
  std::uint32_t prep_window = 24;   ///< queue depth scanned for bank prep
  dram::Timing timing{};
  HOSTNET_FIELDS(ChannelConfig, rpq_capacity, wpq_capacity, wpq_high_wm, wpq_low_wm, max_write_age,
                 dwell_per_queued_read, read_dwell_cap, prep_window, timing)
};

/// Callbacks into the CHA.
class ChannelListener {
 public:
  virtual ~ChannelListener() = default;
  /// Read data arrived back at the CHA boundary.
  virtual void on_read_data(const mem::Request& req, Tick now) = 0;
  /// A write finished its transfer to DRAM. Its WPQ slot was freed when it
  /// issued, t_trans earlier, and may have been taken again since.
  virtual void on_wpq_slot_freed(std::uint32_t channel, Tick now) = 0;
  /// A read left the RPQ (an RPQ slot is free again).
  virtual void on_rpq_slot_freed(std::uint32_t channel, Tick now) = 0;
};

class Channel {
 public:
  Channel(sim::Simulator& sim, const ChannelConfig& cfg, std::uint32_t banks,
          std::uint32_t index, ChannelListener* listener);

  /// The listener (the CHA) is constructed after the MC; it attaches here.
  void set_listener(ChannelListener* l) { listener_ = l; }

  bool rpq_has_space() const { return !st_.rpq.full(); }
  bool wpq_has_space() const { return !st_.wpq.full(); }

  /// Caller must have checked *_has_space(). `coord` must be for this channel.
  void enqueue_read(const mem::Request& req, const dram::Coord& coord);
  void enqueue_write(const mem::Request& req, const dram::Coord& coord);

  counters::McChannelCounters& counters() { return st_.counters; }
  const counters::McChannelCounters& counters() const { return st_.counters; }
  void reset_counters(Tick now) {
    st_.counters.reset(now);
    st_.rpq_pool.reset_telemetry(now);
    st_.wpq_pool.reset_telemetry(now);
  }

  // -- credit pools (in the host's flow::DomainRegistry, interior) -----------
  /// The queues' occupancy pools: in_use mirrors the arena sizes exactly;
  /// the WPQ pool carries the drain watermarks (kHysteresis).
  flow::CreditPool& rpq_pool() { return st_.rpq_pool; }
  flow::CreditPool& wpq_pool() { return st_.wpq_pool; }

  std::size_t rpq_size() const { return st_.rpq.size(); }
  std::size_t wpq_size() const { return st_.wpq.size(); }

  /// Self-kick bookkeeping: each scheduled wake-up is one calendar-queue
  /// entry or rides on a write completion (`fused`, a subset of
  /// `scheduled`); a wake-up superseded by an earlier one fires as a dead
  /// no-op ("cancelled"). `deduped` counts requests that re-used a wake-up
  /// already in flight for the same tick instead of enqueuing a duplicate.
  /// bench_sim_perf's alloc probe and the dead-event regression test bound
  /// cancelled/scheduled.
  struct KickStats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deduped = 0;
    std::uint64_t fused = 0;
    bool operator==(const KickStats&) const = default;
  };
  const KickStats& kick_stats() const { return st_.kick_stats; }

  /// Checked-build audit (no-op otherwise): slot-arena structure of both
  /// queues, enqueue/issue conservation, the bank-ownership bijection
  /// between st_.banks_owned and the prepped sublists, and the fused
  /// wake-up's bookkeeping (DESIGN.md section 4c).
  void verify_invariants() const;

  /// "No tick": an empty next_kick_at / fused_kick_at.
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();

 private:
  enum class Mode : std::uint8_t { kRead, kWrite };

 public:
  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the scheduler mutates. Queue entries carry mem::Request whose
  // completer points into the owning host: same-host restore only.
  struct State {
    SlotQueue rpq;
    SlotQueue wpq;
    std::vector<dram::Bank> banks;
    /// Banks held by a prepped entry (bit b % 64 of word b / 64). The holder
    /// is the one prepped entry of either queue that targets the bank.
    std::vector<std::uint64_t> banks_owned;

    Mode mode = Mode::kRead;
    Tick bus_free_at = 0;
    Tick read_dwell_until = 0;
    std::uint64_t next_entry_id = 0;
    Tick next_kick_at = kNever;
    std::vector<Tick> kick_inflight;  ///< ticks with a wake-up in flight
    /// The wake-up carried by the pending write completion at this tick
    /// instead of its own calendar event (kNever when none); also held in
    /// kick_inflight.
    Tick fused_kick_at = kNever;
    KickStats kick_stats;
    flow::CreditPool rpq_pool;  ///< RPQ occupancy (slots in use)
    flow::CreditPool wpq_pool;  ///< WPQ occupancy + drain watermarks

    counters::McChannelCounters counters;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, rpq, wpq, banks, banks_owned, mode, bus_free_at, read_dwell_until,
                   next_entry_id, next_kick_at, kick_inflight, fused_kick_at, kick_stats,
                   rpq_pool, wpq_pool, counters)
  };

 private:
  void release_inactive_banks(SlotQueue& q);

  bool owned(std::uint32_t bank) const { return (st_.banks_owned[bank / 64] >> (bank % 64)) & 1; }
  void set_owned(std::uint32_t bank, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (bank % 64);
    if (on)
      st_.banks_owned[bank / 64] |= bit;
    else
      st_.banks_owned[bank / 64] &= ~bit;
  }

  void kick();
  void maybe_switch_mode(Tick now);
  void prep_banks(Tick now);
  bool try_issue(Tick now, Tick& write_done);
  void schedule_next(Tick now, Tick write_done);
  void request_kick_at(Tick at, Tick write_done = kNever);
  void on_kick_event(Tick at);

  SlotQueue& active_queue() { return st_.mode == Mode::kRead ? st_.rpq : st_.wpq; }
  const SlotQueue& active_queue() const {
    return st_.mode == Mode::kRead ? st_.rpq : st_.wpq;
  }

  sim::Simulator& sim_;
  const ChannelConfig cfg_;
  const std::uint32_t index_;
  ChannelListener* listener_;
  State st_;
  // listener_ is wiring, not state: the CHA is built after the MC, so it
  // attaches once, after construction (set_listener), and no event writes it.
  HOSTNET_COMPONENT_EXEMPT(listener_)
  HOSTNET_COMPONENT(Channel, sim_, cfg_, index_, listener_, st_)
};

}  // namespace hostnet::mc
