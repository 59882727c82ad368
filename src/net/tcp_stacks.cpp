#include "net/tcp_stack.hpp"

#include <memory>
#include <optional>
#include <string>

#include "net/dctcp.hpp"
#include "net/rdma.hpp"

namespace hostnet::net {

// ---------------------------------------------------------------------------
// DctcpStack
// ---------------------------------------------------------------------------

void DctcpStack::on_epoch(const TransportTelemetry& t, Tick now) {
  // Verbatim pre-refactor TcpReceiver::rtt_epoch() arithmetic, in the same
  // order: tests/test_tcp_stacks.cpp pins the formula, the fig goldens pin
  // the whole receiver.
  (void)now;
  if (t.epoch_drops > 0) {
    cwnd_ = std::max(kMinCwnd, cwnd_ / 2.0);
  } else if (t.epoch_acks > 0) {
    const double frac =
        static_cast<double>(t.epoch_marks) / static_cast<double>(t.epoch_acks);
    alpha_ = (1.0 - g_) * alpha_ + g_ * frac;
    if (frac > 0)
      cwnd_ = std::max(kMinCwnd, cwnd_ * (1.0 - alpha_ / 2.0));
    else
      cwnd_ += 1.0;
  }
  cwnd_ = std::min(cwnd_, kMaxCwnd);
}

std::shared_ptr<const void> DctcpStack::save_blob() const {
  auto snap = std::make_shared<Snapshot>();
  save_state(*snap);
  return snap;
}

void DctcpStack::load_blob(const void* blob) {
  load_state(*static_cast<const Snapshot*>(blob));
}

// ---------------------------------------------------------------------------
// BbrStack
// ---------------------------------------------------------------------------

namespace {
/// Probe 25% above the estimate for one epoch, drain the queue it built the
/// next, then cruise at the estimate -- BBR's ProbeBW cycle recast onto the
/// receiver's base-RTT epochs.
constexpr std::array<double, BbrStack::kGainPhases> kGainCycle = {
    1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr double kCwndGain = 2.0;  ///< inflight cap: 2x estimated BDP
constexpr double kBbrMinCwnd = 4.0;
}  // namespace

void BbrStack::on_send(Tick now) {
  if (pace_interval_ > 0) next_send_ = std::max(next_send_, now) + pace_interval_;
}

double BbrStack::max_bw_packets_per_epoch() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(epochs_, kWindowEpochs));
  double best = 0;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, bw_window_[i]);
  return best;
}

Tick BbrStack::min_rtt() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(epochs_, kWindowEpochs));
  Tick best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rtt_window_[i] > 0 && (best == 0 || rtt_window_[i] < best)) best = rtt_window_[i];
  }
  return best;
}

void BbrStack::on_epoch(const TransportTelemetry& t, Tick now) {
  (void)now;
  const auto slot = static_cast<std::size_t>(epochs_ % kWindowEpochs);
  bw_window_[slot] = static_cast<double>(t.epoch_acks);
  rtt_window_[slot] = t.epoch_rtt_min;
  ++epochs_;
  gain_idx_ = (gain_idx_ + 1) % static_cast<std::uint32_t>(kGainPhases);

  const double bw = max_bw_packets_per_epoch();  // packets per base-RTT epoch
  const Tick rtt = min_rtt();
  if (bw > 0 && rtt > 0) {
    const double gain = kGainCycle[gain_idx_];
    // Departure spacing at gain x estimated bandwidth. Losses are not acted
    // on here: a delivery collapse shows up in the bw filter directly.
    pace_interval_ =
        static_cast<Tick>(static_cast<double>(base_rtt_) / (bw * gain));
    const double bdp =
        bw * static_cast<double>(rtt) / static_cast<double>(base_rtt_);
    cwnd_ = std::max(kBbrMinCwnd, kCwndGain * bdp);
  } else {
    // Startup: no complete estimate yet; grow exponentially like BBR's
    // startup phase until the filters fill.
    cwnd_ *= 2.0;
  }
  cwnd_ = std::min(cwnd_, kMaxCwnd);
}

std::shared_ptr<const void> BbrStack::save_blob() const {
  auto snap = std::make_shared<Snapshot>();
  save_state(*snap);
  return snap;
}

void BbrStack::load_blob(const void* blob) {
  load_state(*static_cast<const Snapshot*>(blob));
}

// ---------------------------------------------------------------------------
// DavisStack
// ---------------------------------------------------------------------------

Tick DavisStack::min_rtt() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(epochs_, kWindowEpochs));
  Tick best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rtt_window_[i] > 0 && (best == 0 || rtt_window_[i] < best)) best = rtt_window_[i];
  }
  return best;
}

void DavisStack::on_epoch(const TransportTelemetry& t, Tick now) {
  (void)now;
  const auto slot = static_cast<std::size_t>(epochs_ % kWindowEpochs);
  rtt_window_[slot] = t.epoch_rtt_min;
  ++epochs_;

  if (t.epoch_drops > 0) {
    cwnd_ = std::max(kMinCwnd, cwnd_ / 2.0);
  } else {
    const Tick base = min_rtt();
    const Tick avg = t.epoch_avg_rtt();
    if (base > 0 && avg > 0) {
      const Tick queue = avg > base ? avg - base : 0;
      if (queue > queue_tolerance_)
        cwnd_ = std::max(kMinCwnd, cwnd_ * kBackoff);
      else
        cwnd_ += 1.0;
    } else if (t.epoch_acks > 0) {
      cwnd_ += 1.0;
    }
  }
  cwnd_ = std::min(cwnd_, kMaxCwnd);
}

std::shared_ptr<const void> DavisStack::save_blob() const {
  auto snap = std::make_shared<Snapshot>();
  save_state(*snap);
  return snap;
}

void DavisStack::load_blob(const void* blob) {
  load_state(*static_cast<const Snapshot*>(blob));
}

// ---------------------------------------------------------------------------
// Stack/spec zoo + transport factory
// ---------------------------------------------------------------------------

std::unique_ptr<TcpStack> make_tcp_stack(const TcpConfig& cfg) {
  switch (cfg.stack) {
    case core::TcpStackKind::kBbr:
      return std::make_unique<BbrStack>(cfg.initial_cwnd, cfg.base_rtt);
    case core::TcpStackKind::kDavis:
      return std::make_unique<DavisStack>(cfg.initial_cwnd, cfg.base_rtt);
    case core::TcpStackKind::kDctcp:
      break;
  }
  return std::make_unique<DctcpStack>(cfg.initial_cwnd, cfg.dctcp_g);
}

TcpConfig tcp_config(const core::TcpSpec& spec) {
  TcpConfig cfg;
  cfg.stack = spec.stack;
  cfg.wire_gb_per_s = spec.wire_gb_per_s;
  cfg.mtu_bytes = spec.mtu_bytes;
  cfg.copy_cores = spec.copy_cores;
  cfg.ring_packets = spec.ring_packets;
  cfg.base_rtt = spec.base_rtt;
  return cfg;
}

core::TcpSpec tcp_spec(core::TcpStackKind kind) {
  core::TcpSpec spec;
  spec.stack = kind;
  spec.name = "tcp_" + core::to_string(kind);
  return spec;
}

std::optional<core::TcpSpec> tcp_p2m_workload(const std::string& name) {
  if (name == "tcp_dctcp") return tcp_spec(core::TcpStackKind::kDctcp);
  if (name == "tcp_bbr") return tcp_spec(core::TcpStackKind::kBbr);
  if (name == "tcp_davis") return tcp_spec(core::TcpStackKind::kDavis);
  return std::nullopt;
}

std::optional<core::TcpStackKind> tcp_stack_kind(const std::string& name) {
  if (name == "dctcp") return core::TcpStackKind::kDctcp;
  if (name == "bbr") return core::TcpStackKind::kBbr;
  if (name == "davis") return core::TcpStackKind::kDavis;
  return std::nullopt;
}

namespace {

std::unique_ptr<core::P2MTransport> make_p2m_transport(core::HostSystem& host,
                                                       const core::P2MSpec& spec) {
  if (spec.tcp) return std::make_unique<TcpReceiver>(host, tcp_config(*spec.tcp));
  return make_rdma_write_transport(host, *spec.rdma_write);
}

// Self-registration: any binary that references this TU (every TcpReceiver
// user, the fleet grammar and net::rdma_write_p2m do) gets the factory
// installed before main().
const bool kTcpFactoryInstalled [[maybe_unused]] = [] {
  install_tcp_factory();
  return true;
}();

}  // namespace

void install_tcp_factory() { core::set_p2m_transport_factory(&make_p2m_transport); }

}  // namespace hostnet::net
