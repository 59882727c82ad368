// DCTCP receiver case study (paper Appendix C.2/D.2).
//
// A sender pushes long flows over a lossy fabric into the receiver NIC; the
// NIC DMA-writes packets into kernel socket buffers (P2M-Write); kernel
// copy cores move payload from socket buffers to application buffers,
// generating C2M traffic (read of the socket buffer + RFO/write-back of the
// app buffer) plus protocol processing. Two coupling loops reproduce the
// paper's observations:
//
//  * blue regime: C2M latency inflation slows the copy -> the receive
//    window (free ring slots) shrinks -> the sender slows. No drops.
//  * red regime: P2M-Write degradation backs up the NIC's RX buffer ->
//    drops -> DCTCP congestion response at the sender.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "common/ring_buffer.hpp"
#include "counters/station.hpp"
#include "cpu/core.hpp"
#include "flow/credit_pool.hpp"
#include "iio/iio.hpp"
#include "net/nic_device.hpp"
#include "net/tcp_stack.hpp"
#include "sim/simulator.hpp"

namespace hostnet::net {

/// A TCP receiver placement (core::P2MSpec::tcp). Each fact is stated once:
/// the link's wire rate and MTU are the NIC's (`nic`), and the NIC
/// DMA-writes at the host's PCIe write rate. core::resolve() keys the
/// leaves the receiver reads; `dctcp_g` only under DCTCP, and the NIC's
/// PFC thresholds never (its PFC is off).
struct TcpConfig {
  /// Which congestion-control stack drives the sender (net/tcp_stack.hpp).
  TcpStackKind stack = TcpStackKind::kDctcp;
  std::uint32_t copy_cores = 4;       ///< iperf receiver cores
  /// Outstanding cachelines per copy core: core::resolve() builds the copy
  /// cores as host cores with an LFB of this many entries (the LFB bounds
  /// the copy's MLP; proto_ns_per_packet is sized so 4 cores just saturate
  /// 100 Gbps in isolation, matching the paper's "sufficient to saturate"
  /// setup).
  std::uint32_t copy_width = 12;
  /// iperf reuses a small receive buffer that stays cache-resident: the
  /// copy's destination stores hit the LLC and generate no memory traffic.
  /// Set false to model a streaming (non-resident) destination buffer.
  bool app_buffer_cache_resident = true;
  std::uint32_t ring_packets = 192;   ///< socket buffer / receive window
  Tick base_rtt = us(40);
  Tick proto_ns_per_packet = ns(1900);///< non-copy kernel processing per packet
  double dctcp_g = 0.0625;            ///< DCTCP's marking-average gain
  double initial_cwnd = 64;           ///< packets
  /// The receiver's NIC, fed packet by packet by the sender, whose link
  /// runs at its wire rate and MTU (100 Gbps effective, jumbo frames).
  /// Lossy + ECN, with a shallower RX buffer than the RoCE default so
  /// red-regime DMA backpressure can outrun the ECN response and drop. A
  /// NIC asking for autonomous arrivals or PFC is refused.
  NicConfig nic = [] {
    NicConfig n;
    n.rx_buffer_bytes = 96 << 10;
    n.ecn_threshold = 56 << 10;
    return n;
  }();
  HOSTNET_FIELDS(TcpConfig, stack, copy_cores, copy_width, app_buffer_cache_resident,
                 ring_packets, base_rtt, proto_ns_per_packet, dctcp_g, initial_cwnd, nic)
};

/// Fleet p2m-workload zoo entry: "tcp_dctcp" / "tcp_bbr" / "tcp_davis" to
/// the default receiver under that stack, or nullopt for non-TCP names.
std::optional<TcpConfig> tcp_p2m_workload(const std::string& name);

class TcpReceiver;

/// One kernel copy core: pops packets from the RX ring and copies them.
/// Per cacheline: socket-buffer read, then app-buffer RFO + write-back;
/// the LFB slot is held through all three trips.
class CopyCore final : public mem::Completer {
 public:
  /// `ring` and `receiver` are wiring to the owning TcpReceiver: the shared
  /// RX ring the core pops packets from, and the receiver told of each
  /// copied packet.
  CopyCore(sim::Simulator& sim, cha::Cha& cha, const cpu::CoreConfig& cfg,
           mem::Region socket_buf, mem::Region app_buf, Tick proto_time,
           std::uint32_t lines_per_packet, bool app_in_cache, std::uint16_t id,
           RingBuffer<Tick>& ring, TcpReceiver& receiver);

  /// Called by the receiver when a packet is available; the core pulls from
  /// the shared ring when idle.
  void notify_work();

  void complete(const mem::Request& req, Tick now) override;

  /// The copy's MLP bound (the core's LFB), an interior pool of the host's
  /// flow::DomainRegistry (its spec declares no domain).
  flow::CreditPool& lfb_pool() { return st_.lfb; }
  const counters::LatencyStation& lfb_station() const { return st_.lfb.station(); }
  std::uint64_t packets_copied() const { return st_.packets_copied; }
  std::uint64_t lines_copied() const { return st_.lines_copied; }
  void reset_counters(Tick now) {
    st_.lfb.reset_telemetry(now);
    st_.packets_copied = 0;
    st_.lines_copied = 0;
  }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the copy loop mutates but the CHA ingress; config and the
  // ring / receiver wiring are construction state.
  struct State {
    bool busy = false;  ///< processing a packet (incl. proto time)
    std::uint32_t lines_to_issue = 0;
    std::uint32_t lines_outstanding = 0;
    std::uint64_t line_cursor = 0;

    flow::CreditPool lfb;  ///< copy-MLP bound (the core's LFB)
    std::uint64_t packets_copied = 0;
    std::uint64_t lines_copied = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, busy, lines_to_issue, lines_outstanding, line_cursor, lfb,
                   packets_copied, lines_copied)
  };

 private:
  void try_start_packet();
  void pump();

  sim::Simulator& sim_;
  const cpu::CoreConfig cfg_;
  const mem::Region socket_buf_;
  const mem::Region app_buf_;
  const Tick proto_time_;
  const std::uint32_t lines_per_packet_;
  const bool app_in_cache_;
  RingBuffer<Tick>& ring_;
  TcpReceiver& receiver_;
  cha::Ingress ingress_;
  State st_;
  HOSTNET_COMPONENT(CopyCore, sim_, cfg_, socket_buf_, app_buf_, proto_time_, lines_per_packet_,
                    app_in_cache_, ring_, receiver_, ingress_, st_)
};

/// The stack-agnostic transport engine: NIC (lossy, ECN) + RX ring + copy
/// cores + a sender model with receive-window flow control. Congestion
/// control lives behind the TcpStack the config selects; the engine owns
/// the event sites (send, accept/drop, ACK, epoch) and feeds them through
/// TransportTelemetry.
class TcpReceiver {
 public:
  /// The NIC (cfg.nic) DMA-writes through `iio` at `pcie_gb_per_s`; the
  /// cfg.copy_cores copy cores are `copy_core`-configured cores behind
  /// `cha`. Throws std::invalid_argument, naming the leaf, when cfg.nic asks
  /// for autonomous arrivals or PFC: the sender feeds this NIC, and it is
  /// lossy.
  TcpReceiver(sim::Simulator& sim, cha::Cha& cha, iio::Iio& iio,
              const cpu::CoreConfig& copy_core, double pcie_gb_per_s, const TcpConfig& cfg);

  // -- measurement ------------------------------------------------------------
  /// The window's telemetry: every accessor below read at `now`. The
  /// receiver's NIC is lossy (ECN), so its pause fraction is 0.
  TransportOutcome collect(Tick now) const;
  /// Application goodput: copied payload bytes over the window (GB/s).
  double goodput_gbps(Tick now) const;
  /// P2M throughput: bytes the NIC DMA-wrote toward memory (GB/s).
  double p2m_gbps(Tick now) const;
  double loss_rate() const;      ///< dropped / offered packets
  double mark_fraction() const;  ///< ECN-marked / accepted packets
  double avg_cwnd() const;       ///< epoch-sampled mean cwnd over the window
  double copy_lfb_latency_ns() const;
  double copy_lfb_occupancy(Tick now) const;
  const NicDevice& nic() const { return *nic_; }
  const TcpStack& stack() const { return *stack_; }
  std::vector<std::unique_ptr<CopyCore>>& copy_cores() { return copy_cores_; }

  // -- lifecycle (run by the owning core::HostSystem) -------------------------
  void start();
  void reset_counters(Tick now);

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // The owning core::HostSystem's snapshot carries the receiver's transport
  // state alongside the host's own.
  struct State {
    RingBuffer<Tick> ring;  ///< arrival time of packets awaiting copy

    // Sender state. The congestion-control half lives inside stack_; the
    // engine keeps only the transport window and the CC inputs.
    TransportTelemetry telemetry;
    // Wire-side packets in flight against the sender's cwnd -- a transport
    // window, not a host credit domain. hostnet-lint: allow(raw-credit-counter)
    std::uint32_t inflight = 0;
    bool wire_busy = false;
    bool pacing_wait = false;  ///< a pacing-gate timer is already scheduled
    /// Send timestamps of accepted packets awaiting a delivery-clocked ACK
    /// (ack_on_delivery() stacks only; deliveries happen in accept order, so
    /// FIFO pairing is exact). Always empty for DCTCP.
    RingBuffer<Tick> pending_acks;

    // Window counters.
    Tick window_start = 0;
    std::uint64_t packets_copied = 0;
    std::uint64_t packets_offered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t packets_marked = 0;
    std::uint64_t packets_accepted = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, ring, telemetry, inflight, wire_busy, pacing_wait, pending_acks,
                   window_start, packets_copied, packets_offered, packets_dropped,
                   packets_marked, packets_accepted)
  };

 private:
  friend class NicDevice;
  friend class CopyCore;

  void sender_pump();
  void on_ack(Tick sent);
  void on_packet_delivered(Tick now);  ///< the NIC finished a packet's DMA
  void on_packet_copied();             ///< a copy core finished a packet
  void rtt_epoch();

  sim::Simulator& sim_;
  const TcpConfig cfg_;
  std::unique_ptr<NicDevice> nic_;
  std::vector<std::unique_ptr<CopyCore>> copy_cores_;
  std::unique_ptr<TcpStack> stack_;
  State st_;
  HOSTNET_COMPONENT(TcpReceiver, sim_, cfg_, nic_, copy_cores_, stack_, st_)
};

}  // namespace hostnet::net
