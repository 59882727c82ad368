#include "net/dctcp.hpp"

#include <algorithm>
#include <cassert>

namespace hostnet::net {

// ---------------------------------------------------------------------------
// CopyCore
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kPhaseSocketRead = 0;
constexpr std::uint64_t kPhaseAppRfo = 1;
}  // namespace

CopyCore::CopyCore(sim::Simulator& sim, cha::Cha& cha, const cpu::CoreConfig& cfg,
                   mem::Region socket_buf, mem::Region app_buf, Tick proto_time,
                   std::uint32_t lines_per_packet, bool app_in_cache, std::uint16_t id,
                   RingBuffer<Tick>& ring, TcpReceiver& receiver)
    : sim_(sim),
      cfg_(cfg),
      socket_buf_(socket_buf),
      app_buf_(app_buf),
      proto_time_(proto_time),
      lines_per_packet_(lines_per_packet),
      app_in_cache_(app_in_cache),
      ring_(ring),
      receiver_(receiver),
      ingress_(sim, cha, mem::Source::kCpu, id, *this) {
  flow::CreditPoolSpec spec;
  spec.name = "net.copy.lfb";
  spec.capacity = cfg_.lfb_entries;
  st_.lfb.configure(spec);
}

void CopyCore::notify_work() { try_start_packet(); }

void CopyCore::try_start_packet() {
  if (st_.busy || ring_.empty()) return;
  ring_.pop_front();
  st_.busy = true;
  // Protocol processing (socket bookkeeping, TCP/IP) before the copy; this
  // is the ~50% non-copy CPU time the paper cites from [10].
  sim_.schedule(proto_time_, [this] {
    st_.lines_to_issue = lines_per_packet_;
    st_.lines_outstanding = lines_per_packet_;
    pump();
  });
}

void CopyCore::pump() {
  while (st_.lfb.has_space() && st_.lines_to_issue > 0) {
    --st_.lines_to_issue;
    const std::uint64_t line = st_.line_cursor++ % socket_buf_.lines();
    st_.lfb.acquire(sim_.now());
    const mem::Request req =
        ingress_.request(mem::Op::kRead, socket_buf_.base + line * kCachelineBytes, sim_.now(),
                         kPhaseSocketRead);
    sim_.schedule(cfg_.t_core_to_cha, [this, req] { ingress_.submit(req); });
  }
}

void CopyCore::complete(const mem::Request& req, Tick now) {
  if (req.op == mem::Op::kRead && req.tag == kPhaseSocketRead && !app_in_cache_) {
    // Socket data in registers; now RFO the destination app-buffer line
    // (same LFB slot, next phase).
    const std::uint64_t line = (req.addr - socket_buf_.base) / kCachelineBytes;
    const std::uint64_t dst = app_buf_.base + (line % app_buf_.lines()) * kCachelineBytes;
    const mem::Request rfo = ingress_.request(mem::Op::kRead, dst, req.created, kPhaseAppRfo);
    sim_.schedule(cfg_.t_core_to_cha, [this, rfo] { ingress_.submit(rfo); });
    return;
  }
  if (req.op == mem::Op::kRead && req.tag == kPhaseAppRfo) {
    // Destination line owned; hand the write to the CHA (C2M-Write domain).
    const mem::Request wr = ingress_.request(mem::Op::kWrite, req.addr, req.created);
    sim_.schedule(cfg_.t_wb_to_cha, [this, wr] { ingress_.submit(wr); });
    return;
  }

  // Write acknowledged by the CHA: the line is copied, slot freed.
  st_.lfb.release(now, req.created);
  ++st_.lines_copied;
  assert(st_.lines_outstanding > 0);
  --st_.lines_outstanding;
  if (st_.lines_outstanding == 0 && st_.lines_to_issue == 0) {
    ++st_.packets_copied;
    st_.busy = false;
    receiver_.on_packet_copied();
    try_start_packet();
  } else {
    pump();
  }
}

// ---------------------------------------------------------------------------
// TcpReceiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Simulator& sim, cha::Cha& cha, iio::Iio& iio,
                         const cpu::CoreConfig& core, double pcie_gb_per_s, const TcpConfig& cfg)
    : sim_(sim), cfg_(cfg), stack_(make_tcp_stack(cfg)) {
  NicConfig nc = cfg_.nic;
  nc.autonomous = false;
  nc.pfc = false;
  nc.wire_gb_per_s = cfg_.wire_gb_per_s;
  nc.pcie_gb_per_s = pcie_gb_per_s;
  nc.mtu_bytes = cfg_.mtu_bytes;
  nic_ = std::make_unique<NicDevice>(sim, iio, nc, this);

  const std::uint32_t lines_per_packet = cfg_.mtu_bytes / kCachelineBytes;
  cpu::CoreConfig copy_cfg = core;
  copy_cfg.lfb_entries = cfg_.copy_width;
  for (std::uint32_t i = 0; i < cfg_.copy_cores; ++i) {
    mem::Region app{(160ull + i) << 30, 1ull << 30};
    copy_cores_.push_back(std::make_unique<CopyCore>(
        sim, cha, copy_cfg, nc.region, app, cfg_.proto_ns_per_packet, lines_per_packet,
        cfg_.app_buffer_cache_resident, static_cast<std::uint16_t>(1000 + i), st_.ring, *this));
  }
}

void TcpReceiver::start() {
  sender_pump();
  sim_.schedule(cfg_.base_rtt, [this] { rtt_epoch(); });
}

void TcpReceiver::reset_counters(Tick now) {
  nic_->reset_counters(now);
  for (auto& c : copy_cores_) c->reset_counters(now);
  st_.window_start = now;
  st_.packets_copied = st_.packets_offered = st_.packets_dropped = 0;
  st_.packets_marked = st_.packets_accepted = 0;
  st_.telemetry.reset_window();
}

void TcpReceiver::sender_pump() {
  if (st_.wire_busy) return;
  const double rwnd = static_cast<double>(cfg_.ring_packets) -
                      static_cast<double>(st_.ring.size());
  const double window = std::min(stack_->cwnd(), std::max(rwnd, 0.0));
  if (static_cast<double>(st_.inflight) >= window) return;

  const Tick now = sim_.now();
  // Pacing gate (BBR-style stacks). DCTCP's gate is constant 0, so its
  // event stream -- and the fig goldens -- are untouched by this branch.
  const Tick pace = stack_->pacing_gate(now);
  if (pace > 0) {
    if (!st_.pacing_wait) {
      st_.pacing_wait = true;
      sim_.schedule(pace, [this] {
        st_.pacing_wait = false;
        sender_pump();
      });
    }
    return;
  }

  ++st_.inflight;
  ++st_.packets_offered;
  st_.wire_busy = true;
  stack_->on_send(now);
  const Tick t_packet = serialization_ticks(cfg_.mtu_bytes, cfg_.wire_gb_per_s);
  sim_.schedule(t_packet, [this] {
    st_.wire_busy = false;
    sender_pump();
  });
  // One-way latency to the receiver NIC.
  const Tick sent = now;
  sim_.schedule(t_packet + cfg_.base_rtt / 2, [this, sent] {
    bool marked = false;
    const bool accepted = nic_->offer_packet(&marked);
    if (!accepted) {
      ++st_.packets_dropped;
      ++st_.telemetry.epoch_drops;
      stack_->on_drop(sim_.now());
      // Loss detected a round-trip later (fast retransmit).
      sim_.schedule(cfg_.base_rtt, [this] {
        assert(st_.inflight > 0);
        --st_.inflight;
        sender_pump();
      });
      return;
    }
    ++st_.packets_accepted;
    if (marked) {
      ++st_.packets_marked;
      ++st_.telemetry.epoch_marks;
    }
    if (stack_->ack_on_delivery()) {
      // ACK released at DMA completion (on_packet_delivered), so the
      // measured RTT carries the host-side backlog.
      st_.pending_acks.push_back(sent);
    } else {
      // ACK returns after the remaining half RTT.
      sim_.schedule(cfg_.base_rtt / 2, [this, sent] { on_ack(sent); });
    }
  });
}

void TcpReceiver::on_ack(Tick sent) {
  const Tick now = sim_.now();
  ++st_.telemetry.epoch_acks;
  st_.telemetry.note_rtt(now - sent);
  stack_->on_ack(now - sent, now);
  assert(st_.inflight > 0);
  --st_.inflight;
  sender_pump();
}

void TcpReceiver::on_packet_delivered(Tick now) {
  st_.ring.push_back(now);
  for (auto& c : copy_cores_) c->notify_work();
  if (!st_.pending_acks.empty()) {
    // Deliveries happen in accept order, so the oldest pending send is the
    // one this DMA completion belongs to. Empty unless ack_on_delivery().
    const Tick sent = st_.pending_acks.front();
    st_.pending_acks.pop_front();
    sim_.schedule(cfg_.base_rtt / 2, [this, sent] { on_ack(sent); });
  }
}

void TcpReceiver::on_packet_copied() {
  ++st_.packets_copied;
  sender_pump();  // receive window freed
}

void TcpReceiver::rtt_epoch() {
  stack_->on_epoch(st_.telemetry, sim_.now());
  st_.telemetry.cwnd_sum += stack_->cwnd();
  ++st_.telemetry.cwnd_samples;
  st_.telemetry.clear_epoch();
  sim_.schedule(cfg_.base_rtt, [this] { rtt_epoch(); });
}

TransportOutcome TcpReceiver::collect(Tick now) const {
  TransportOutcome t;
  t.goodput_gbps = goodput_gbps(now);
  t.loss_rate = loss_rate();
  t.mark_fraction = mark_fraction();
  t.avg_cwnd = avg_cwnd();
  t.copy_lfb_latency_ns = copy_lfb_latency_ns();
  t.copy_lfb_occupancy = copy_lfb_occupancy(now);
  for (const auto& c : copy_cores_) t.copy_lines += c->lines_copied();
  return t;
}

double TcpReceiver::goodput_gbps(Tick now) const {
  const Tick w = now - st_.window_start;
  return gb_per_s(st_.packets_copied * cfg_.mtu_bytes, w);
}

double TcpReceiver::p2m_gbps(Tick now) const {
  const Tick w = now - st_.window_start;
  return gb_per_s(nic_->bytes_dma(), w);
}

double TcpReceiver::loss_rate() const {
  return st_.packets_offered > 0
             ? static_cast<double>(st_.packets_dropped) / static_cast<double>(st_.packets_offered)
             : 0.0;
}

double TcpReceiver::mark_fraction() const {
  return st_.packets_accepted > 0
             ? static_cast<double>(st_.packets_marked) / static_cast<double>(st_.packets_accepted)
             : 0.0;
}

double TcpReceiver::avg_cwnd() const {
  return st_.telemetry.avg_cwnd(stack_->cwnd());
}

double TcpReceiver::copy_lfb_latency_ns() const {
  double sum = 0;
  std::uint64_t n = 0;
  for (const auto& c : copy_cores_) {
    const auto& s = c->lfb_station();
    if (s.completions() > 0) {
      sum += s.mean_latency_ns() * static_cast<double>(s.completions());
      n += s.completions();
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TcpReceiver::copy_lfb_occupancy(Tick now) const {
  double sum = 0;
  for (const auto& c : copy_cores_)
    sum += c->lfb_station().avg_occupancy(now);
  return sum;
}

}  // namespace hostnet::net
