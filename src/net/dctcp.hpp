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

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/snapshot.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "counters/station.hpp"
#include "flow/credit_pool.hpp"
#include "net/nic_device.hpp"
#include "net/tcp_stack.hpp"

namespace hostnet::net {

struct TcpConfig {
  /// Which congestion-control stack drives the sender (net/tcp_stack.hpp).
  core::TcpStackKind stack = core::TcpStackKind::kDctcp;
  double wire_gb_per_s = 12.25;       ///< 100 Gbps link, effective
  std::uint32_t mtu_bytes = 9216;     ///< jumbo frames (144 cachelines)
  std::uint32_t copy_cores = 4;       ///< iperf receiver cores
  /// Outstanding cachelines per copy core (the LFB bounds the copy's MLP;
  /// proto_ns_per_packet is sized so 4 cores just saturate 100 Gbps in
  /// isolation, matching the paper's "sufficient to saturate" setup).
  std::uint32_t copy_width = 12;
  /// iperf reuses a small receive buffer that stays cache-resident: the
  /// copy's destination stores hit the LLC and generate no memory traffic.
  /// Set false to model a streaming (non-resident) destination buffer.
  bool app_buffer_cache_resident = true;
  std::uint32_t ring_packets = 192;   ///< socket buffer / receive window
  Tick base_rtt = us(40);
  Tick proto_ns_per_packet = ns(1900);///< non-copy kernel processing per packet
  double dctcp_g = 0.0625;
  double initial_cwnd = 64;           ///< packets
  /// Lossy + ECN settings; a shallower RX buffer than the RoCE default so
  /// red-regime DMA backpressure can outrun the ECN response and drop.
  NicConfig nic = [] {
    NicConfig n;
    n.rx_buffer_bytes = 96 << 10;
    n.ecn_threshold = 56 << 10;
    return n;
  }();
};

/// Historical name from the DCTCP-only days; the config now selects any
/// stack and DctcpConfig{} still means "the paper's DCTCP receiver".
using DctcpConfig = TcpConfig;

/// One kernel copy core: pops packets from the RX ring and copies them.
/// Per cacheline: socket-buffer read, then app-buffer RFO + write-back;
/// the LFB slot is held through all three trips.
class CopyCore final : public mem::Completer, public cha::ChaClient {
 public:
  /// `ring` and `on_packet_copied` are one-time wiring to the owning
  /// TcpReceiver: the shared RX ring the core pops packets from, and the
  /// callback run after each copied packet (std::function is fine here:
  /// installed at construction, invoked -- never created -- per packet).
  CopyCore(sim::Simulator& sim, cha::Cha& cha, const cpu::CoreConfig& cfg,
           mem::Region socket_buf, mem::Region app_buf, Tick proto_time,
           std::uint32_t lines_per_packet, bool app_in_cache, std::uint16_t id,
           RingBuffer<Tick>& ring,
           // hostnet-lint: allow(hot-alloc)
           std::function<void()> on_packet_copied);

  /// Called by the receiver when a packet is available; the core pulls from
  /// the shared ring when idle.
  void notify_work();

  void complete(const mem::Request& req, Tick now) override;
  bool on_cha_admission(mem::Op op) override;

  const counters::LatencyStation& lfb_station() const { return st_.lfb.station(); }
  std::uint64_t packets_copied() const { return st_.packets_copied; }
  std::uint64_t lines_copied() const { return st_.lines_copied; }
  void reset_counters(Tick now) {
    st_.lfb.reset_telemetry(now);
    st_.packets_copied = 0;
    st_.lines_copied = 0;
  }

  /// A copy access that failed CHA admission, with when it first blocked.
  struct Blocked {
    mem::Request req;
    Tick since;
    bool operator==(const Blocked&) const = default;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the copy loop mutates; config and the ring / callback wiring
  // are construction state. Blocked requests carry completer pointers into
  // this core: same-host restore only.
  struct State {
    bool busy = false;  ///< processing a packet (incl. proto time)
    std::uint32_t lines_to_issue = 0;
    std::uint32_t lines_outstanding = 0;
    std::uint64_t line_cursor = 0;

    RingBuffer<Blocked> blocked_reads;
    RingBuffer<Blocked> blocked_writes;

    /// Copy-MLP bound (the core's LFB). A case-study component, not part of
    /// the HostSystem, so it stays off the DomainRegistry.
    // hostnet-audit: allow(pool-unregistered, case-study pool: no DomainRegistry here)
    flow::CreditPool lfb;
    std::uint64_t packets_copied = 0;
    std::uint64_t lines_copied = 0;

    bool operator==(const State&) const = default;
  };
  using Snapshot = State;

  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

 private:
  void try_start_packet();
  void pump();
  void issue(std::uint64_t addr, std::uint64_t phase);
  void send_to_cha(mem::Request req);

  sim::Simulator& sim_;
  cha::Cha& cha_;
  const cpu::CoreConfig cfg_;
  const mem::Region socket_buf_;
  const mem::Region app_buf_;
  const Tick proto_time_;
  const std::uint32_t lines_per_packet_;
  const bool app_in_cache_;
  const std::uint16_t id_;
  RingBuffer<Tick>& ring_;
  // hostnet-lint: allow(hot-alloc)  -- invoked per packet, assigned once at build
  const std::function<void()> on_packet_copied_;
  State st_;
};

/// The stack-agnostic transport engine: NIC (lossy, ECN) + RX ring + copy
/// cores + a sender model with receive-window flow control. Congestion
/// control lives behind the TcpStack the config selects; the engine owns
/// the event sites (send, accept/drop, ACK, epoch) and feeds them through
/// TransportTelemetry.
class TcpReceiver final : public core::P2MTransport {
 public:
  TcpReceiver(core::HostSystem& host, const TcpConfig& cfg);

  // -- measurement ------------------------------------------------------------
  /// The window's telemetry: every accessor below read at `now`. The
  /// receiver's NIC is lossy (ECN), so its pause fraction is 0.
  core::TransportOutcome collect(Tick now) const override;
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

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Registered with HostSystem::attach as external save/load hooks, so
  // HostSystem::snapshot() carries the receiver's transport state alongside
  // the host's own.
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
  };
  struct Snapshot {
    State st;
    NicDevice::Snapshot nic;
    std::vector<CopyCore::Snapshot> copy_cores;
    TcpStack::Snapshot stack;
    bool operator==(const Snapshot&) const = default;
  };

  void save_state(Snapshot& out) const {
    out.st = st_;
    nic_->save_state(out.nic);
    out.copy_cores.resize(copy_cores_.size());
    for (std::size_t i = 0; i < copy_cores_.size(); ++i)
      copy_cores_[i]->save_state(out.copy_cores[i]);
    stack_->save_state(out.stack);
  }

  void load_state(const Snapshot& s) {
    st_ = s.st;
    nic_->load_state(s.nic);
    assert(s.copy_cores.size() == copy_cores_.size());
    for (std::size_t i = 0; i < copy_cores_.size(); ++i)
      copy_cores_[i]->load_state(s.copy_cores[i]);
    stack_->load_state(s.stack);
  }

 private:
  void start();
  void reset(Tick now);
  void sender_pump();
  void on_ack(Tick sent);
  void on_packet_delivered(Tick now);
  void on_packet_copied();
  void rtt_epoch();

  core::HostSystem& host_;
  const TcpConfig cfg_;
  std::unique_ptr<NicDevice> nic_;
  std::vector<std::unique_ptr<CopyCore>> copy_cores_;
  std::unique_ptr<TcpStack> stack_;
  State st_;
};

HOSTNET_SNAPSHOT_COVERS(CopyCore);
HOSTNET_SNAPSHOT_COVERS(TcpReceiver);

}  // namespace hostnet::net
