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
// be fed packet-by-packet by a transport model (the TCP sender).
#pragma once

#include <cstdint>

#include "common/fields.hpp"
#include "iio/iio.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::net {

class TcpReceiver;  // net/dctcp.hpp

/// The NIC's own knobs. The defaults are a transport-fed NIC (a TCP
/// receiver's, net::TcpConfig::nic): jumbo frames, no autonomous arrivals,
/// lossy with ECN. core::RdmaWriteSpec::nic() is the RDMA-write NIC
/// (ib_write_bw): 4 KB MTU, line-rate arrivals, PFC on. The host-side DMA
/// rate is not a NIC knob: a host's NICs DMA-write at its PCIe write rate
/// (core::HostConfig::pcie_write_gb_per_s).
struct NicConfig {
  double wire_gb_per_s = 12.25;        ///< 98 Gbps effective
  std::uint32_t mtu_bytes = 9216;      ///< jumbo frames (144 cachelines)
  std::uint64_t rx_buffer_bytes = 512 << 10;
  bool autonomous = false;             ///< self-generate line-rate arrivals
  // PFC; the thresholds are read only when `pfc` is on.
  bool pfc = false;
  std::uint64_t pause_threshold = 384 << 10;
  std::uint64_t resume_threshold = 192 << 10;
  // ECN (lossy mode)
  std::uint64_t ecn_threshold = 128 << 10;
  mem::Region region = mem::p2m_region();  ///< DMA target (RX ring buffers)
  HOSTNET_FIELDS(NicConfig, wire_gb_per_s, mtu_bytes, rx_buffer_bytes, autonomous, pfc,
                 pause_threshold, resume_threshold, ecn_threshold, region)
};

/// A transport's measurement-window telemetry: an RDMA-write NIC's or a TCP
/// receiver's. A quantity the transport does not have reads 0: an RDMA-write
/// NIC has no copy cores or cwnd, and a TCP receiver's lossy NIC is never
/// PFC-paused.
struct TransportOutcome {
  double goodput_gbps = 0;         ///< delivered payload GB/s (the P2M score)
  double pause_fraction = 0;       ///< PFC-paused time / window
  double loss_rate = 0;            ///< dropped / offered packets
  double mark_fraction = 0;        ///< ECN-marked / accepted packets
  double avg_cwnd = 0;             ///< epoch-sampled mean cwnd (packets)
  double copy_lfb_latency_ns = 0;  ///< mean LFB latency of the copy cores
  double copy_lfb_occupancy = 0;   ///< copy cores' average LFB occupancy, summed
  std::uint64_t copy_lines = 0;    ///< cachelines the copy cores copied
  bool operator==(const TransportOutcome&) const = default;
};

class NicDevice final : public iio::Device {
 public:
  /// The NIC DMA-writes through `iio` at `pcie_gb_per_s`. `receiver` is
  /// the TcpReceiver that owns this NIC, told of each packet fully
  /// DMA-written toward memory (per accepted packet, in arrival order) so
  /// it can hand the packet to the kernel; null for an RDMA NIC.
  NicDevice(sim::Simulator& sim, iio::Iio& iio, const NicConfig& cfg, double pcie_gb_per_s,
            TcpReceiver* receiver = nullptr);

  void start();
  void reset_counters(Tick now);

  /// The RDMA-write transport's window telemetry: the wire bytes accepted
  /// since the last counter reset (GB/s) and the PFC pause fraction.
  TransportOutcome collect(Tick now) const;

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
  std::uint64_t packets_dropped() const { return st_.packets_dropped; }
  std::uint64_t packets_accepted() const { return st_.packets_accepted; }
  std::uint64_t packets_marked() const { return st_.packets_marked; }
  std::uint64_t buffer_occupancy_bytes() const { return st_.buffer_bytes; }
  bool paused() const { return st_.paused; }
  double pause_fraction(Tick now) const;
  Tick window_start() const { return st_.window_start; }  ///< last counter reset

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the traffic mutates; config, the derived serialization times
  // and the receiver wiring are construction state.
  struct State {
    std::uint64_t buffer_bytes = 0;
    std::uint64_t dma_line_cursor = 0;
    std::uint64_t lines_in_current_packet = 0;
    bool link_busy = false;
    bool waiting_write_credit = false;
    bool paused = false;
    bool arrival_scheduled = false;

    std::uint64_t bytes_accepted = 0;
    std::uint64_t bytes_dma = 0;
    std::uint64_t packets_accepted = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t packets_marked = 0;
    Tick pause_started = 0;
    Tick paused_time = 0;
    Tick window_start = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, buffer_bytes, dma_line_cursor, lines_in_current_packet, link_busy,
                   waiting_write_credit, paused, arrival_scheduled, bytes_accepted, bytes_dma,
                   packets_accepted, packets_dropped, packets_marked, pause_started, paused_time,
                   window_start)
  };

 private:
  void arrival();
  void schedule_arrival();
  void pump();
  void note_pause(Tick now, bool pause);

  sim::Simulator& sim_;
  iio::Iio& iio_;
  const NicConfig cfg_;
  const Tick t_line_;    ///< PCIe serialization per cacheline
  const Tick t_packet_;  ///< wire serialization per MTU packet
  TcpReceiver* const receiver_;
  flow::OpWaiters<NicDevice, &NicDevice::on_credit_available> waiters_{*this};
  State st_;
  HOSTNET_COMPONENT(NicDevice, sim_, iio_, cfg_, t_line_, t_packet_, receiver_, waiters_, st_)
};

}  // namespace hostnet::net
