#include "net/tcp_stack.hpp"

#include <memory>
#include <optional>
#include <string>

#include "net/dctcp.hpp"

namespace hostnet::net {

std::string to_string(TcpStackKind kind) {
  switch (kind) {
    case TcpStackKind::kDctcp: return "dctcp";
    case TcpStackKind::kBbr: return "bbr";
    case TcpStackKind::kDavis: return "davis";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DctcpStack
// ---------------------------------------------------------------------------

void DctcpStack::on_epoch(const TransportTelemetry& t, Tick now) {
  // Verbatim pre-refactor TcpReceiver::rtt_epoch() arithmetic, in the same
  // order: tests/test_tcp_stacks.cpp pins the formula, the fig goldens pin
  // the whole receiver.
  (void)now;
  if (t.epoch_drops > 0) {
    st_.cwnd = std::max(kMinCwnd, st_.cwnd / 2.0);
  } else if (t.epoch_acks > 0) {
    const double frac =
        static_cast<double>(t.epoch_marks) / static_cast<double>(t.epoch_acks);
    st_.alpha = (1.0 - g_) * st_.alpha + g_ * frac;
    if (frac > 0)
      st_.cwnd = std::max(kMinCwnd, st_.cwnd * (1.0 - st_.alpha / 2.0));
    else
      st_.cwnd += 1.0;
  }
  st_.cwnd = std::min(st_.cwnd, kMaxCwnd);
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
  if (st_.pace_interval > 0) st_.next_send = std::max(st_.next_send, now) + st_.pace_interval;
}

double BbrStack::max_bw_packets_per_epoch() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(st_.epochs, kWindowEpochs));
  double best = 0;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, st_.bw_window[i]);
  return best;
}

Tick BbrStack::min_rtt() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(st_.epochs, kWindowEpochs));
  Tick best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (st_.rtt_window[i] > 0 && (best == 0 || st_.rtt_window[i] < best)) best = st_.rtt_window[i];
  }
  return best;
}

void BbrStack::on_epoch(const TransportTelemetry& t, Tick now) {
  (void)now;
  const auto slot = static_cast<std::size_t>(st_.epochs % kWindowEpochs);
  st_.bw_window[slot] = static_cast<double>(t.epoch_acks);
  st_.rtt_window[slot] = t.epoch_rtt_min;
  ++st_.epochs;
  st_.gain_idx = (st_.gain_idx + 1) % static_cast<std::uint32_t>(kGainPhases);

  const double bw = max_bw_packets_per_epoch();  // packets per base-RTT epoch
  const Tick rtt = min_rtt();
  if (bw > 0 && rtt > 0) {
    const double gain = kGainCycle[st_.gain_idx];
    // Departure spacing at gain x estimated bandwidth. Losses are not acted
    // on here: a delivery collapse shows up in the bw filter directly.
    st_.pace_interval =
        static_cast<Tick>(static_cast<double>(base_rtt_) / (bw * gain));
    const double bdp =
        bw * static_cast<double>(rtt) / static_cast<double>(base_rtt_);
    st_.cwnd = std::max(kBbrMinCwnd, kCwndGain * bdp);
  } else {
    // Startup: no complete estimate yet; grow exponentially like BBR's
    // startup phase until the filters fill.
    st_.cwnd *= 2.0;
  }
  st_.cwnd = std::min(st_.cwnd, kMaxCwnd);
}

// ---------------------------------------------------------------------------
// DavisStack
// ---------------------------------------------------------------------------

Tick DavisStack::min_rtt() const {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(st_.epochs, kWindowEpochs));
  Tick best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (st_.rtt_window[i] > 0 && (best == 0 || st_.rtt_window[i] < best)) best = st_.rtt_window[i];
  }
  return best;
}

void DavisStack::on_epoch(const TransportTelemetry& t, Tick now) {
  (void)now;
  const auto slot = static_cast<std::size_t>(st_.epochs % kWindowEpochs);
  st_.rtt_window[slot] = t.epoch_rtt_min;
  ++st_.epochs;

  if (t.epoch_drops > 0) {
    st_.cwnd = std::max(kMinCwnd, st_.cwnd / 2.0);
  } else {
    const Tick base = min_rtt();
    const Tick avg = t.epoch_avg_rtt();
    if (base > 0 && avg > 0) {
      const Tick queue = avg > base ? avg - base : 0;
      if (queue > queue_tolerance_)
        st_.cwnd = std::max(kMinCwnd, st_.cwnd * kBackoff);
      else
        st_.cwnd += 1.0;
    } else if (t.epoch_acks > 0) {
      st_.cwnd += 1.0;
    }
  }
  st_.cwnd = std::min(st_.cwnd, kMaxCwnd);
}

// ---------------------------------------------------------------------------
// Stack zoo
// ---------------------------------------------------------------------------

std::unique_ptr<TcpStack> make_tcp_stack(const TcpConfig& cfg) {
  switch (cfg.stack) {
    case TcpStackKind::kBbr:
      return std::make_unique<BbrStack>(cfg.initial_cwnd, cfg.base_rtt);
    case TcpStackKind::kDavis:
      return std::make_unique<DavisStack>(cfg.initial_cwnd, cfg.base_rtt);
    case TcpStackKind::kDctcp:
      break;
  }
  return std::make_unique<DctcpStack>(cfg.initial_cwnd, cfg.dctcp_g);
}

std::optional<TcpStackKind> tcp_stack_kind(const std::string& name) {
  if (name == "dctcp") return TcpStackKind::kDctcp;
  if (name == "bbr") return TcpStackKind::kBbr;
  if (name == "davis") return TcpStackKind::kDavis;
  return std::nullopt;
}

std::optional<TcpConfig> tcp_p2m_workload(const std::string& name) {
  if (name.rfind("tcp_", 0) != 0) return std::nullopt;
  const std::optional<TcpStackKind> kind = tcp_stack_kind(name.substr(4));
  if (!kind) return std::nullopt;
  TcpConfig cfg;
  cfg.stack = *kind;
  return cfg;
}

void install_tcp_factory() {}

}  // namespace hostnet::net
