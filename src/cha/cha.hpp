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
//    *before* the CHA and their admission delay is measured -- the paper's
//    "backpressure from CHA" phase;
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
#include "common/snapshot.hpp"
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

/// A source (core or IIO) blocked on CHA admission. `on_cha_admission`
/// should retry exactly one submission; return true iff a slot was consumed.
class ChaClient {
 public:
  ChaClient() {
    read_waiter_.client = this;
    read_waiter_.op = mem::Op::kRead;
    write_waiter_.client = this;
    write_waiter_.op = mem::Op::kWrite;
  }
  virtual ~ChaClient() = default;
  virtual bool on_cha_admission(mem::Op op) = 0;

  /// Per-op adapter for flow::CreditPool waiting: the CHA queues the adapter
  /// matching the exhausted tracker, so the wake carries which op freed. A
  /// client queues once per blocked request (duplicates intentional: the
  /// retry drains one blocked request per wake).
  flow::CreditWaiter& admission_waiter(mem::Op op) {
    return op == mem::Op::kRead ? read_waiter_ : write_waiter_;
  }

 private:
  struct OpWaiter final : flow::CreditWaiter {
    void on_credit_available(flow::CreditPool&) override {
      client->on_cha_admission(op);
    }
    ChaClient* client = nullptr;
    mem::Op op = mem::Op::kRead;
  };
  OpWaiter read_waiter_;
  OpWaiter write_waiter_;
};

class Cha final : public mc::ChannelListener {
 public:
  Cha(sim::Simulator& sim, const ChaConfig& cfg, mc::MemoryController& mc);

  /// Admit a request at its source. Returns false when the tracker pool is
  /// exhausted; the source should wait_for_admission() and retry. On
  /// success the CHA owns the request's journey to memory and back.
  bool try_submit(mem::Request req);

  /// Register `client` to be woken (FIFO order) when admission for `op`
  /// frees up. A client is notified at most once per registration.
  /// `source` matters for writes when a peripheral reserve is configured.
  void wait_for_admission(mem::Op op, ChaClient* client,
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

  // -- credit pools (registered with flow::DomainRegistry, interior) ---------
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
  };
  using Snapshot = State;

  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

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
};

HOSTNET_SNAPSHOT_COVERS(Cha);

}  // namespace hostnet::cha
