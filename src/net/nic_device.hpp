// RDMA-capable NIC model (receive side).
//
// Incoming wire traffic lands in a finite on-NIC RX buffer and is drained
// by DMA writes through the IIO (consuming IIO write-buffer credits). Two
// loss-handling modes, matching the paper's case studies (Appendix C/D):
//
//   * PFC (RoCE): when the RX buffer crosses the pause threshold, the NIC
//     sends PFC pauses upstream -- arrivals stop, nothing is lost, and the
//     paused-time fraction is what the paper reports (22-43% in quadrant 3).
//   * Lossy (+ ECN for DCTCP): packets arriving to a full buffer are
//     dropped; packets are ECN-marked when the buffer exceeds the marking
//     threshold.
//
// The NIC can generate its own line-rate arrivals (ib_write_bw-style), or
// be fed packet-by-packet by a transport model (the DCTCP sender).
#pragma once

#include <cstdint>
#include <functional>

#include "common/snapshot.hpp"
#include "iio/iio.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::net {

struct NicConfig {
  double wire_gb_per_s = 12.25;        ///< 98 Gbps effective
  double pcie_gb_per_s = 14.0;         ///< host-side DMA bandwidth
  std::uint32_t mtu_bytes = 4096;
  std::uint64_t rx_buffer_bytes = 512 << 10;
  bool autonomous = true;              ///< self-generate line-rate arrivals
  // TX (DMA reads from host memory toward the wire); 0 disables the path.
  double tx_gb_per_s = 0;
  mem::Region tx_region{};             ///< TX payload source; defaults to `region`
  // PFC
  bool pfc = true;
  std::uint64_t pause_threshold = 384 << 10;
  std::uint64_t resume_threshold = 192 << 10;
  // ECN (lossy mode)
  std::uint64_t ecn_threshold = 128 << 10;
  mem::Region region{};                ///< DMA target (RX ring buffers)
};

class NicDevice final : public iio::Device {
 public:
  NicDevice(sim::Simulator& sim, iio::Iio& iio, const NicConfig& cfg);

  void start();
  void reset_counters(Tick now);

  /// Feed one packet from a transport model (non-autonomous mode). Returns
  /// false if the packet was dropped (RX buffer full). `*ecn_marked` is set
  /// when the packet was accepted above the marking threshold.
  bool offer_packet(bool* ecn_marked);

  /// Invoked when a packet has been fully DMA-written toward memory (per
  /// accepted packet, in arrival order). Used by the DCTCP model to hand
  /// the packet to the kernel. One-time wiring: the std::function is
  /// assigned at construction and only invoked on the hot path.
  // hostnet-lint: allow(hot-alloc)
  void set_packet_delivered_cb(std::function<void(Tick)> cb) {
    packet_delivered_ = std::move(cb);
  }

  // -- iio::Device ------------------------------------------------------------
  void on_credit_available(mem::Op op) override;
  void on_read_data(std::uint64_t tag, Tick now) override;

  // -- measurement ------------------------------------------------------------
  std::uint64_t bytes_accepted() const { return bytes_accepted_; }
  std::uint64_t bytes_dma() const { return bytes_dma_; }
  std::uint64_t bytes_tx() const { return bytes_tx_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t packets_accepted() const { return packets_accepted_; }
  std::uint64_t packets_marked() const { return packets_marked_; }
  std::uint64_t buffer_occupancy_bytes() const { return buffer_bytes_; }
  bool paused() const { return paused_; }
  double pause_fraction(Tick now) const;
  Tick window_start() const { return window_start_; }  ///< last counter reset

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Config (sim_, iio_, cfg_, t_*) and the packet_delivered_ wiring are
  // construction state; everything the traffic mutates is below.
  struct Snapshot {
    std::uint64_t buffer_bytes = 0;
    std::uint64_t dma_line_cursor = 0;
    std::uint64_t tx_line_cursor = 0;
    std::uint64_t lines_in_current_packet = 0;
    bool link_busy = false;
    bool tx_link_busy = false;
    bool waiting_write_credit = false;
    bool waiting_read_credit = false;
    bool paused = false;
    bool arrival_scheduled = false;
    std::uint64_t bytes_accepted = 0;
    std::uint64_t bytes_dma = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t packets_accepted = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t packets_marked = 0;
    Tick pause_started = 0;
    Tick paused_time = 0;
    Tick window_start = 0;
  };

  void save_state(Snapshot& out) const {
    out.buffer_bytes = buffer_bytes_;
    out.dma_line_cursor = dma_line_cursor_;
    out.tx_line_cursor = tx_line_cursor_;
    out.lines_in_current_packet = lines_in_current_packet_;
    out.link_busy = link_busy_;
    out.tx_link_busy = tx_link_busy_;
    out.waiting_write_credit = waiting_write_credit_;
    out.waiting_read_credit = waiting_read_credit_;
    out.paused = paused_;
    out.arrival_scheduled = arrival_scheduled_;
    out.bytes_accepted = bytes_accepted_;
    out.bytes_dma = bytes_dma_;
    out.bytes_tx = bytes_tx_;
    out.packets_accepted = packets_accepted_;
    out.packets_dropped = packets_dropped_;
    out.packets_marked = packets_marked_;
    out.pause_started = pause_started_;
    out.paused_time = paused_time_;
    out.window_start = window_start_;
  }

  void load_state(const Snapshot& s) {
    buffer_bytes_ = s.buffer_bytes;
    dma_line_cursor_ = s.dma_line_cursor;
    tx_line_cursor_ = s.tx_line_cursor;
    lines_in_current_packet_ = s.lines_in_current_packet;
    link_busy_ = s.link_busy;
    tx_link_busy_ = s.tx_link_busy;
    waiting_write_credit_ = s.waiting_write_credit;
    waiting_read_credit_ = s.waiting_read_credit;
    paused_ = s.paused;
    arrival_scheduled_ = s.arrival_scheduled;
    bytes_accepted_ = s.bytes_accepted;
    bytes_dma_ = s.bytes_dma;
    bytes_tx_ = s.bytes_tx;
    packets_accepted_ = s.packets_accepted;
    packets_dropped_ = s.packets_dropped;
    packets_marked_ = s.packets_marked;
    pause_started_ = s.pause_started;
    paused_time_ = s.paused_time;
    window_start_ = s.window_start;
  }

 private:
  void arrival();
  void schedule_arrival();
  void pump();
  void tx_pump();
  void note_pause(Tick now, bool pause);

  sim::Simulator& sim_;
  iio::Iio& iio_;
  // hostnet-audit: skip(cfg_, construction config; immutable after build)
  NicConfig cfg_;
  // hostnet-audit: skip(t_line_, derived from cfg_ bandwidth at construction; never mutates)
  Tick t_line_;       ///< PCIe serialization per cacheline
  // hostnet-audit: skip(t_packet_, derived from cfg_ bandwidth at construction; never mutates)
  Tick t_packet_;     ///< wire serialization per MTU packet
  // hostnet-audit: skip(t_tx_line_, derived from cfg_ bandwidth at construction; never mutates)
  Tick t_tx_line_;    ///< TX wire serialization per cacheline (0 = TX off)

  std::uint64_t buffer_bytes_ = 0;
  std::uint64_t dma_line_cursor_ = 0;
  std::uint64_t tx_line_cursor_ = 0;
  std::uint64_t lines_in_current_packet_ = 0;
  bool link_busy_ = false;
  bool tx_link_busy_ = false;
  // RX (DMA write) and TX (DMA read) pumps stall on different IIO pools, so
  // each tracks its own wait; a freed credit of one op must not wake the
  // other pump.
  bool waiting_write_credit_ = false;
  bool waiting_read_credit_ = false;
  bool paused_ = false;
  bool arrival_scheduled_ = false;

  std::uint64_t bytes_accepted_ = 0;
  std::uint64_t bytes_dma_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t packets_accepted_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_marked_ = 0;
  Tick pause_started_ = 0;
  Tick paused_time_ = 0;
  Tick window_start_ = 0;

  // hostnet-audit: skip(packet_delivered_, callback wiring installed at build; restore targets the same host)
  // hostnet-lint: allow(hot-alloc)  -- invoked per packet, assigned once at build
  std::function<void(Tick)> packet_delivered_;
};

HOSTNET_SNAPSHOT_COVERS(NicDevice);

}  // namespace hostnet::net
