// The Caching and Home Agent (CHA).
//
// The CHA abstracts the LLC and memory away from the rest of the host
// network while maintaining coherence (paper section 3). We model it as a
// single logical agent (the paper's own simplification) with:
//
//  * a read tracker (TOR) -- an entry is held from admission until the read
//    data returns from the memory controller;
//  * a write tracker -- an entry is held from admission until the write is
//    admitted into the MC's WPQ. When the WPQ backpressures, writes back up
//    here: this backlog penalizes the P2M-Write domain (which spans the MC)
//    but NOT the C2M-Write domain (which ends at the CHA) -- the asymmetry
//    at the heart of the red regime (section 5.2);
//  * admission control: when a tracker pool is exhausted, sources block
//    *before* the CHA, in their cha::Ingress, and their admission delay is
//    measured -- the paper's "backpressure from CHA" phase;
//  * per-channel forwarding ports with a bounded in-flight window, modeling
//    the finite bandwidth of the CHA->MC hop (this is what paces WPQ refill
//    and yields read/write channel sharing under write overload);
//  * optionally DDIO: inbound DMA writes allocate in the LLC's DDIO ways
//    and the evicted victim's write-back is what reaches memory.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/ddio.hpp"
#include "common/fields.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "counters/station.hpp"
#include "flow/credit_pool.hpp"
#include "mc/memory_controller.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::cha {

struct ChaConfig {
  std::uint32_t read_tor = 320;        ///< reads in flight CHA<->DRAM
  std::uint32_t write_tracker = 192;   ///< writes awaiting WPQ admission
  std::uint32_t read_fwd_window = 16;  ///< per-channel CHA->MC reads in flight
  std::uint32_t write_fwd_window = 1;  ///< per-channel CHA->MC writes in flight
  Tick t_read_proc = ns(6);    ///< CHA pipeline (lookup, route) before forward
  Tick t_write_proc = ns(6);
  Tick t_read_fwd = ns(4);     ///< CHA->MC hop for one read
  Tick t_write_fwd = ns(5);    ///< CHA->MC hop for one write
  Tick t_write_ack = ns(4);    ///< CHA admission ack (ends the C2M-Write domain)
  Tick t_return_core = ns(22); ///< data return CHA->core (fills caches, frees LFB)
  Tick t_return_iio = ns(80);  ///< data return CHA->IIO
  bool ddio = false;
  std::uint64_t ddio_capacity_bytes = 4ull << 20;
  std::uint32_t ddio_ways = 2;

  // -- isolation extensions (paper section 7 future work) --------------------
  /// Forward peripheral writes to the MC ahead of CPU write-backs, so WPQ
  /// backpressure no longer queues P2M writes behind the C2M backlog.
  bool peripheral_write_priority = false;
  /// Tracker entries only peripheral writes may use (CPU writes are capped
  /// at write_tracker - reserve), keeping admission open for P2M under red-
  /// regime backlog.
  std::uint32_t write_tracker_peripheral_reserve = 0;
  HOSTNET_FIELDS(ChaConfig, read_tor, write_tracker, read_fwd_window, write_fwd_window, t_read_proc,
                 t_write_proc, t_read_fwd, t_write_fwd, t_write_ack, t_return_core, t_return_iio,
                 ddio, ddio_capacity_bytes, ddio_ways, peripheral_write_priority,
                 write_tracker_peripheral_reserve)
};

class Cha final : public mc::ChannelListener {
 public:
  Cha(sim::Simulator& sim, const ChaConfig& cfg, mc::MemoryController& mc);

  /// Admit a request at its source. Returns false when the tracker pool is
  /// exhausted; the source should wait_for_admission() and retry. On
  /// success the CHA owns the request's journey to memory and back.
  /// Sources reach it through their Ingress (below).
  bool try_submit(mem::Request req);

  /// Register `waiter` to be woken (FIFO order) when admission for `op`
  /// frees up; it is woken at most once per registration. `source` matters
  /// for writes when a peripheral reserve is configured.
  void wait_for_admission(mem::Op op, flow::CreditWaiter& waiter,
                          mem::Source source = mem::Source::kCpu);

  /// Called by sources on every *accepted* request with how long it was
  /// blocked on admission (0 for immediate admission). Feeds the paper's
  /// "CHA admission delay" measurement (section 6.2).
  void record_admission_wait(mem::TrafficClass cls, Tick waited);

  // -- mc::ChannelListener --------------------------------------------------
  void on_read_data(const mem::Request& req, Tick now) override;
  void on_wpq_slot_freed(std::uint32_t channel, Tick now) override;
  void on_rpq_slot_freed(std::uint32_t channel, Tick now) override;

  // -- measurement -----------------------------------------------------------
  /// Residency stations: reads = CHA admission -> data back at CHA
  /// ("CHA->DRAM read latency"); writes = CHA admission -> WPQ admission
  /// ("CHA->MC write latency").
  counters::LatencyStation& station(mem::TrafficClass cls) { return st_.stations[idx(cls)]; }

  /// Mean admission wait in ns across accepted requests of `cls` (includes
  /// zero waits).
  double mean_admission_wait_ns(mem::TrafficClass cls) const;

  std::uint64_t lines_read(mem::TrafficClass cls) const { return st_.lines_read[idx(cls)]; }
  std::uint64_t lines_written(mem::TrafficClass cls) const { return st_.lines_written[idx(cls)]; }
  std::uint64_t ddio_hits() const { return st_.ddio_hits; }
  std::uint32_t read_tor_used() const { return st_.read_pool.in_use(); }
  std::uint32_t write_tracker_used() const { return st_.write_pool.in_use(); }
  const TimeWeighted& write_backlog_occupancy() const {
    return st_.write_pool.station().occupancy_integral();
  }
  /// Fraction of time writes are backpressured at the CHA (more writes
  /// resident than the forwarding pipeline naturally holds) -- the
  /// measured analogue of the paper's P_fill^WPQ input.
  double wpq_blocked_fraction(Tick now) const {
    return st_.write_pool.pressure_fraction(now);
  }

  // -- credit pools (in the host's flow::DomainRegistry, interior) -----------
  flow::CreditPool& read_pool() { return st_.read_pool; }    ///< read tracker (TOR)
  flow::CreditPool& write_pool() { return st_.write_pool; }  ///< write tracker

  void reset_counters(Tick now);

  /// Checked-build audit (no-op otherwise): tracker-pool conservation --
  /// admissions minus frees equals the in-use counters, within capacity.
  void verify_invariants() const {
    st_.read_pool.verify();
    st_.write_pool.verify();
  }

  /// A request in flight between admission and the MC boundary.
  struct Transit {
    mem::Request req;
    bool operator==(const Transit&) const = default;
  };
  /// Per-channel forwarding port state (bounded CHA->MC window).
  struct Port {
    RingBuffer<Transit> read_pending;
    RingBuffer<Transit> write_pending;
    RingBuffer<Transit> read_parked;   ///< at MC boundary, RPQ full (token held)
    RingBuffer<Transit> write_parked;  ///< at MC boundary, WPQ full (token held)
    std::uint32_t read_tokens = 0;
    std::uint32_t write_tokens = 0;
    bool operator==(const Port&) const = default;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the traffic mutates. Transit entries carry mem::Request whose
  // completer points into the owning host: same-host restore only.
  struct State {
    std::optional<cache::DdioCache> ddio;
    std::vector<Port> ports;
    flow::CreditPool read_pool;  ///< read tracker (TOR) entries
    /// Write tracker entries; its occupancy integral is N_waiting in the
    /// analytical formula and its pressure signal is the measured P_fill^WPQ.
    flow::CreditPool write_pool;

    std::array<counters::LatencyStation, mem::kNumTrafficClasses> stations{};
    std::array<MeanAccumulator, mem::kNumTrafficClasses> admission_wait_ns{};
    std::array<std::uint64_t, mem::kNumTrafficClasses> lines_read{};
    std::array<std::uint64_t, mem::kNumTrafficClasses> lines_written{};
    std::uint64_t ddio_hits = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, ddio, ports, read_pool, write_pool, stations, admission_wait_ns,
                   lines_read, lines_written, ddio_hits)
  };

 private:
  static constexpr std::size_t idx(mem::TrafficClass c) { return static_cast<std::size_t>(c); }

  void start_read(mem::Request req);
  void start_write(mem::Request req);
  void route_read(const mem::Request& req);
  void route_write(const mem::Request& req);
  void pump_reads(std::uint32_t ch);
  void pump_writes(std::uint32_t ch);
  /// Spend one forward token of port `ch` and send `req` over the CHA->MC hop.
  void forward_read(std::uint32_t ch, const mem::Request& req);
  void forward_write(std::uint32_t ch, const mem::Request& req);
  void admit_read_to_rpq(std::uint32_t ch, const mem::Request& req);
  void admit_write_to_wpq(std::uint32_t ch, const mem::Request& req);
  void free_read_tor();
  void free_write_tracker();
  bool has_space(mem::Op op, mem::Source source) const;

  sim::Simulator& sim_;
  const ChaConfig cfg_;
  mc::MemoryController& mc_;
  State st_;
  HOSTNET_COMPONENT(Cha, sim_, cfg_, mc_, st_)
};

/// One request source's way into the CHA: each core, copy core and IIO
/// stack owns one, built with the source's mem::Source, origin id and
/// completer. It builds the source's requests and admits each one; when
/// the tracker is full it queues the request in a FIFO per op, waits on the
/// tracker and, on each wake, retries the oldest. Every admitted request's
/// blocked time (0 when admitted at once) is the paper's "CHA admission
/// delay" (sections 5.2, 6.2).
class Ingress {
 public:
  Ingress(sim::Simulator& sim, Cha& cha, mem::Source source, std::uint16_t origin,
          mem::Completer& completer)
      : sim_(sim), cha_(cha), source_(source), origin_(origin), completer_(completer) {}

  /// A request from this source, completed at its completer.
  mem::Request request(mem::Op op, std::uint64_t addr, Tick created,
                       std::uint64_t tag = 0) const {
    mem::Request req;
    req.addr = addr;
    req.op = op;
    req.source = source_;
    req.origin = origin_;
    req.created = created;
    req.completer = &completer_;
    req.tag = tag;
    return req;
  }

  /// Admit `req` now, or queue it until the tracker frees an entry.
  void submit(const mem::Request& req) {
    if (cha_.try_submit(req)) {
      cha_.record_admission_wait(req.cls(), 0);
      return;
    }
    blocked(req.op).push_back(Blocked{req, sim_.now()});
    cha_.wait_for_admission(req.op, waiters_[req.op], source_);
  }

  /// A request that failed admission, with when it first blocked.
  struct Blocked {
    mem::Request req;
    Tick since;
    bool operator==(const Blocked&) const = default;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Blocked requests carry the owner's completer pointer, and the tracker's
  // waiter rings point at waiters_: same-host restore only.
  struct State {
    RingBuffer<Blocked> reads;
    RingBuffer<Blocked> writes;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, reads, writes)
  };

 private:
  RingBuffer<Blocked>& blocked(mem::Op op) {
    return op == mem::Op::kRead ? st_.reads : st_.writes;
  }
  /// The tracker for `op` freed an entry: retry the oldest blocked request.
  /// A waiter is queued per blocked request, so each wake retries one.
  void retry(mem::Op op);

  sim::Simulator& sim_;
  Cha& cha_;
  const mem::Source source_;
  const std::uint16_t origin_;
  mem::Completer& completer_;
  flow::OpWaiters<Ingress, &Ingress::retry> waiters_{*this};
  State st_;
  HOSTNET_COMPONENT(Ingress, sim_, cha_, source_, origin_, completer_, waiters_, st_)
};

}  // namespace hostnet::cha
