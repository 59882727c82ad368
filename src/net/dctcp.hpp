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
  CopyCore(sim::Simulator& sim, cha::Cha& cha, const cpu::CoreConfig& cfg,
           mem::Region socket_buf, mem::Region app_buf, Tick proto_time,
           std::uint32_t lines_per_packet, bool app_in_cache, std::uint16_t id);

  /// Called by the receiver when a packet is available; the core pulls via
  /// the shared ring through `pop` when idle.
  void notify_work();
  // One-time wiring from the owning TcpReceiver (std::function is fine
  // here: installed at construction, invoked -- never created -- per packet).
  // hostnet-lint: allow(hot-alloc)
  void set_ring(RingBuffer<Tick>* ring, std::function<void()> on_packet_copied) {
    ring_ = ring;
    on_packet_copied_ = std::move(on_packet_copied);
  }

  void complete(const mem::Request& req, Tick now) override;
  bool on_cha_admission(mem::Op op) override;

  counters::LatencyStation& lfb_station() { return lfb_pool_.station(); }
  std::uint64_t packets_copied() const { return packets_copied_; }
  std::uint64_t lines_copied() const { return lines_copied_; }
  void reset_counters(Tick now) {
    lfb_pool_.reset_telemetry(now);
    packets_copied_ = 0;
    lines_copied_ = 0;
  }

  /// A copy access that failed CHA admission, with when it first blocked.
  struct Blocked {
    mem::Request req;
    Tick since;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Config and the ring_/on_packet_copied_ wiring are construction state.
  // Blocked requests carry completer pointers into this core: same-host
  // restore only.
  struct Snapshot {
    bool busy = false;
    std::uint32_t lines_to_issue = 0;
    std::uint32_t lines_outstanding = 0;
    std::uint64_t line_cursor = 0;
    RingBuffer<Blocked> blocked_reads;
    RingBuffer<Blocked> blocked_writes;
    flow::CreditPool::Snapshot lfb_pool;
    std::uint64_t packets_copied = 0;
    std::uint64_t lines_copied = 0;
  };

  void save_state(Snapshot& out) const {
    out.busy = busy_;
    out.lines_to_issue = lines_to_issue_;
    out.lines_outstanding = lines_outstanding_;
    out.line_cursor = line_cursor_;
    out.blocked_reads = blocked_reads_;
    out.blocked_writes = blocked_writes_;
    lfb_pool_.save_state(out.lfb_pool);
    out.packets_copied = packets_copied_;
    out.lines_copied = lines_copied_;
  }

  void load_state(const Snapshot& s) {
    busy_ = s.busy;
    lines_to_issue_ = s.lines_to_issue;
    lines_outstanding_ = s.lines_outstanding;
    line_cursor_ = s.line_cursor;
    blocked_reads_ = s.blocked_reads;
    blocked_writes_ = s.blocked_writes;
    lfb_pool_.load_state(s.lfb_pool);
    packets_copied_ = s.packets_copied;
    lines_copied_ = s.lines_copied;
  }

 private:
  void try_start_packet();
  void pump();
  void issue(std::uint64_t addr, std::uint64_t phase);
  void send_to_cha(mem::Request req);

  sim::Simulator& sim_;
  cha::Cha& cha_;
  // hostnet-audit: skip(cfg_, construction config; immutable after build)
  cpu::CoreConfig cfg_;
  // hostnet-audit: skip(socket_buf_, fixed buffer geometry chosen at construction)
  mem::Region socket_buf_;
  // hostnet-audit: skip(app_buf_, fixed buffer geometry chosen at construction)
  mem::Region app_buf_;
  // hostnet-audit: skip(proto_time_, derived from cfg_ at construction; never mutates)
  Tick proto_time_;
  // hostnet-audit: skip(lines_per_packet_, derived from cfg_ at construction; never mutates)
  std::uint32_t lines_per_packet_;
  // hostnet-audit: skip(app_in_cache_, construction config; immutable after build)
  bool app_in_cache_;
  // hostnet-audit: skip(id_, construction identity; fixed at build)
  std::uint16_t id_;

  // hostnet-audit: skip(ring_, wiring to the owning TcpReceiver's queue; the owner snapshots the queue itself)
  RingBuffer<Tick>* ring_ = nullptr;
  // hostnet-audit: skip(on_packet_copied_, callback wiring installed at build; restore targets the same host)
  // hostnet-lint: allow(hot-alloc)  -- invoked per packet, assigned once at build
  std::function<void()> on_packet_copied_;

  bool busy_ = false;           ///< processing a packet (incl. proto time)
  std::uint32_t lines_to_issue_ = 0;
  std::uint32_t lines_outstanding_ = 0;
  std::uint64_t line_cursor_ = 0;

  RingBuffer<Blocked> blocked_reads_;
  RingBuffer<Blocked> blocked_writes_;

  /// Copy-MLP bound (the core's LFB). A case-study component, not part of
  /// the HostSystem, so it stays off the DomainRegistry.
  // hostnet-audit: allow(pool-unregistered, case-study component outside the HostSystem; no DomainRegistry exists here)
  flow::CreditPool lfb_pool_;
  std::uint64_t packets_copied_ = 0;
  std::uint64_t lines_copied_ = 0;
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
  /// Application goodput: copied payload bytes over the window (GB/s).
  double goodput_gbps(Tick now) const override;
  /// The receiver's NIC is lossy (ECN): never PFC-paused.
  double pause_fraction(Tick) const override { return 0; }
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
  struct Snapshot {
    NicDevice::Snapshot nic;
    std::vector<CopyCore::Snapshot> copy_cores;
    RingBuffer<Tick> ring;
    std::shared_ptr<const void> stack;  ///< the stack's own POD Snapshot
    TransportTelemetry telemetry;
    std::uint32_t inflight = 0;
    bool wire_busy = false;
    bool pacing_wait = false;
    RingBuffer<Tick> pending_acks;
    Tick window_start = 0;
    std::uint64_t packets_copied = 0;
    std::uint64_t packets_offered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t packets_marked = 0;
    std::uint64_t packets_accepted = 0;
  };

  void save_state(Snapshot& out) const {
    nic_->save_state(out.nic);
    out.copy_cores.resize(copy_cores_.size());
    for (std::size_t i = 0; i < copy_cores_.size(); ++i)
      copy_cores_[i]->save_state(out.copy_cores[i]);
    out.ring = ring_;
    out.stack = stack_->save_blob();
    out.telemetry = telemetry_;
    out.inflight = inflight_;
    out.wire_busy = wire_busy_;
    out.pacing_wait = pacing_wait_;
    out.pending_acks = pending_acks_;
    out.window_start = window_start_;
    out.packets_copied = packets_copied_;
    out.packets_offered = packets_offered_;
    out.packets_dropped = packets_dropped_;
    out.packets_marked = packets_marked_;
    out.packets_accepted = packets_accepted_;
  }

  void load_state(const Snapshot& s) {
    nic_->load_state(s.nic);
    assert(s.copy_cores.size() == copy_cores_.size());
    for (std::size_t i = 0; i < copy_cores_.size(); ++i)
      copy_cores_[i]->load_state(s.copy_cores[i]);
    ring_ = s.ring;
    stack_->load_blob(s.stack.get());
    telemetry_ = s.telemetry;
    inflight_ = s.inflight;
    wire_busy_ = s.wire_busy;
    pacing_wait_ = s.pacing_wait;
    pending_acks_ = s.pending_acks;
    window_start_ = s.window_start;
    packets_copied_ = s.packets_copied;
    packets_offered_ = s.packets_offered;
    packets_dropped_ = s.packets_dropped;
    packets_marked_ = s.packets_marked;
    packets_accepted_ = s.packets_accepted;
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
  // hostnet-audit: skip(cfg_, construction config; immutable after build)
  TcpConfig cfg_;
  std::unique_ptr<NicDevice> nic_;
  std::vector<std::unique_ptr<CopyCore>> copy_cores_;
  RingBuffer<Tick> ring_;  ///< arrival time of packets awaiting copy

  // Sender state. The congestion-control half lives inside stack_ (its own
  // Snapshot, carried as an opaque blob above); the engine keeps only the
  // transport window and the CC inputs.
  std::unique_ptr<TcpStack> stack_;
  TransportTelemetry telemetry_;
  // Wire-side packets in flight against the sender's cwnd -- a transport
  // window, not a host credit domain. hostnet-lint: allow(raw-credit-counter)
  std::uint32_t inflight_ = 0;
  bool wire_busy_ = false;
  bool pacing_wait_ = false;  ///< a pacing-gate timer is already scheduled
  /// Send timestamps of accepted packets awaiting a delivery-clocked ACK
  /// (ack_on_delivery() stacks only; deliveries happen in accept order, so
  /// FIFO pairing is exact). Always empty for DCTCP.
  RingBuffer<Tick> pending_acks_;

  // Window counters.
  Tick window_start_ = 0;
  std::uint64_t packets_copied_ = 0;
  std::uint64_t packets_offered_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_marked_ = 0;
  std::uint64_t packets_accepted_ = 0;
};

HOSTNET_SNAPSHOT_COVERS(CopyCore);
HOSTNET_SNAPSHOT_COVERS(TcpReceiver);

}  // namespace hostnet::net
