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

#include "common/fields.hpp"
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
  /// `packet_delivered` (optional) is invoked when a packet has been fully
  /// DMA-written toward memory (per accepted packet, in arrival order); the
  /// DCTCP model uses it to hand the packet to the kernel. It is one-time
  /// wiring: only invoked on the hot path, never reassigned.
  NicDevice(sim::Simulator& sim, iio::Iio& iio, const NicConfig& cfg,
            // hostnet-lint: allow(hot-alloc)
            std::function<void(Tick)> packet_delivered = {});

  void start();
  void reset_counters(Tick now);

  /// Feed one packet from a transport model (non-autonomous mode). Returns
  /// false if the packet was dropped (RX buffer full). `*ecn_marked` is set
  /// when the packet was accepted above the marking threshold.
  bool offer_packet(bool* ecn_marked);

  // -- iio::Device ------------------------------------------------------------
  void on_credit_available(mem::Op op) override;
  void on_read_data(std::uint64_t tag, Tick now) override;
  flow::CreditWaiter& credit_waiter(mem::Op op) override { return waiters_[op]; }

  // -- measurement ------------------------------------------------------------
  std::uint64_t bytes_accepted() const { return st_.bytes_accepted; }
  std::uint64_t bytes_dma() const { return st_.bytes_dma; }
  std::uint64_t bytes_tx() const { return st_.bytes_tx; }
  std::uint64_t packets_dropped() const { return st_.packets_dropped; }
  std::uint64_t packets_accepted() const { return st_.packets_accepted; }
  std::uint64_t packets_marked() const { return st_.packets_marked; }
  std::uint64_t buffer_occupancy_bytes() const { return st_.buffer_bytes; }
  bool paused() const { return st_.paused; }
  double pause_fraction(Tick now) const;
  Tick window_start() const { return st_.window_start; }  ///< last counter reset

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the traffic mutates; config, the derived serialization times
  // and the packet_delivered_ wiring are construction state.
  struct State {
    std::uint64_t buffer_bytes = 0;
    std::uint64_t dma_line_cursor = 0;
    std::uint64_t tx_line_cursor = 0;
    std::uint64_t lines_in_current_packet = 0;
    bool link_busy = false;
    bool tx_link_busy = false;
    // RX (DMA write) and TX (DMA read) pumps stall on different IIO pools,
    // so each tracks its own wait; a freed credit of one op must not wake
    // the other pump.
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

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, buffer_bytes, dma_line_cursor, tx_line_cursor, lines_in_current_packet,
                   link_busy, tx_link_busy, waiting_write_credit, waiting_read_credit, paused,
                   arrival_scheduled, bytes_accepted, bytes_dma, bytes_tx, packets_accepted,
                   packets_dropped, packets_marked, pause_started, paused_time, window_start)
  };

 private:
  void arrival();
  void schedule_arrival();
  void pump();
  void tx_pump();
  void note_pause(Tick now, bool pause);

  sim::Simulator& sim_;
  iio::Iio& iio_;
  const NicConfig cfg_;
  const Tick t_line_;     ///< PCIe serialization per cacheline
  const Tick t_packet_;   ///< wire serialization per MTU packet
  const Tick t_tx_line_;  ///< TX wire serialization per cacheline (0 = TX off)
  // hostnet-lint: allow(hot-alloc)  -- invoked per packet, assigned once at build
  const std::function<void(Tick)> packet_delivered_;
  flow::OpWaiters<NicDevice, &NicDevice::on_credit_available> waiters_{*this};
  State st_;
  HOSTNET_COMPONENT(NicDevice, sim_, iio_, cfg_, t_line_, t_packet_, t_tx_line_, packet_delivered_,
                    waiters_, st_)
};

}  // namespace hostnet::net
