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
// bank-prep scan starts only when a waiting entry's bank is free (a
// waiting-bank set per queue and the owned-bank set, one word per 64 banks),
// and the next-kick time comes from an incrementally maintained
// earliest-row_ready_at tracker. Scheduling decisions are bit-identical to
// the original deque scans; only the work per decision changed.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/snapshot.hpp"
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
};

/// Callbacks into the CHA.
class ChannelListener {
 public:
  virtual ~ChannelListener() = default;
  /// Read data arrived back at the CHA boundary.
  virtual void on_read_data(const mem::Request& req, Tick now) = 0;
  /// A write left the WPQ for DRAM (a WPQ slot is free again).
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

  bool rpq_has_space() const { return !rpq_.full(); }
  bool wpq_has_space() const { return !wpq_.full(); }

  /// Caller must have checked *_has_space(). `coord` must be for this channel.
  void enqueue_read(const mem::Request& req, const dram::Coord& coord);
  void enqueue_write(const mem::Request& req, const dram::Coord& coord);

  counters::McChannelCounters& counters() { return counters_; }
  const counters::McChannelCounters& counters() const { return counters_; }
  void reset_counters(Tick now) {
    counters_.reset(now);
    rpq_pool_.reset_telemetry(now);
    wpq_pool_.reset_telemetry(now);
  }

  // -- credit pools (registered with flow::DomainRegistry, interior) ---------
  /// The queues' occupancy pools: in_use mirrors the arena sizes exactly;
  /// the WPQ pool carries the drain watermarks (kHysteresis).
  flow::CreditPool& rpq_pool() { return rpq_pool_; }
  flow::CreditPool& wpq_pool() { return wpq_pool_; }

  std::size_t rpq_size() const { return rpq_.size(); }
  std::size_t wpq_size() const { return wpq_.size(); }

  /// Self-kick bookkeeping: each scheduled wake-up is one calendar-queue
  /// entry; a wake-up superseded by an earlier one fires as a dead no-op
  /// ("cancelled"). `deduped` counts requests that re-used an event already
  /// in flight for the same tick instead of enqueuing a duplicate.
  /// bench_sim_perf's alloc probe and the dead-event regression test bound
  /// cancelled/scheduled.
  struct KickStats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deduped = 0;
  };
  const KickStats& kick_stats() const { return kick_stats_; }

  /// Checked-build audit (no-op otherwise): slot-arena structure of both
  /// queues, enqueue/issue conservation, and the bank-ownership bijection
  /// between banks_owned_ and the prepped sublists (DESIGN.md section 4c).
  void verify_invariants() const;

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Config (sim_, cfg_, index_, listener_) is construction state. SlotQueue
  // and McChannelCounters have no default constructor, so the snapshot
  // holds them via std::optional (copy-assignment into an engaged optional
  // still reuses the queues' slot arenas). Queue entries carry mem::Request
  // whose completer points into the owning host: same-host restore only.
  // `mode` is the Mode enum's underlying value (the enum itself is private).
  struct Snapshot {
    std::optional<SlotQueue> rpq;
    std::optional<SlotQueue> wpq;
    std::vector<dram::Bank> banks;
    std::vector<std::uint64_t> banks_owned;
    std::uint8_t mode = 0;
    Tick bus_free_at = 0;
    Tick read_dwell_until = 0;
    std::uint64_t next_entry_id = 0;
    Tick next_kick_at = 0;
    std::vector<Tick> kick_inflight;
    KickStats kick_stats;
    flow::CreditPool::Snapshot rpq_pool;
    flow::CreditPool::Snapshot wpq_pool;
    std::optional<counters::McChannelCounters> counters;
  };

  void save_state(Snapshot& out) const;
  void load_state(const Snapshot& s);

 private:
  enum class Mode : std::uint8_t { kRead, kWrite };

  void release_inactive_banks(SlotQueue& q);

  bool owned(std::uint32_t bank) const { return (banks_owned_[bank / 64] >> (bank % 64)) & 1; }
  void set_owned(std::uint32_t bank, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (bank % 64);
    if (on)
      banks_owned_[bank / 64] |= bit;
    else
      banks_owned_[bank / 64] &= ~bit;
  }

  void kick();
  void maybe_switch_mode(Tick now);
  void prep_banks(Tick now);
  bool try_issue(Tick now);
  void schedule_next(Tick now);
  void request_kick_at(Tick at);
  void on_kick_event(Tick at);

  SlotQueue& active_queue() { return mode_ == Mode::kRead ? rpq_ : wpq_; }

  sim::Simulator& sim_;
  // hostnet-audit: skip(cfg_, construction config; immutable after build)
  ChannelConfig cfg_;
  // hostnet-audit: skip(index_, construction identity; fixed at build)
  std::uint32_t index_;
  // hostnet-audit: skip(listener_, observer wiring installed at build; restore targets the same host)
  ChannelListener* listener_;

  SlotQueue rpq_;
  SlotQueue wpq_;
  std::vector<dram::Bank> banks_;
  /// Banks held by a prepped entry (bit b % 64 of word b / 64). The holder is
  /// the one prepped entry of either queue that targets the bank.
  std::vector<std::uint64_t> banks_owned_;

  Mode mode_ = Mode::kRead;
  Tick bus_free_at_ = 0;
  Tick read_dwell_until_ = 0;
  std::uint64_t next_entry_id_ = 0;
  Tick next_kick_at_ = std::numeric_limits<Tick>::max();
  std::vector<Tick> kick_inflight_;  ///< ticks with a wake-up event in flight
  KickStats kick_stats_;
  flow::CreditPool rpq_pool_;  ///< RPQ occupancy (slots in use)
  flow::CreditPool wpq_pool_;  ///< WPQ occupancy + drain watermarks

  counters::McChannelCounters counters_;
};

HOSTNET_SNAPSHOT_COVERS(Channel);

}  // namespace hostnet::mc
