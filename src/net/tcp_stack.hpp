// Pluggable TCP congestion-control stacks (ROADMAP item 3).
//
// net::TcpReceiver is a stack-agnostic transport engine: it owns the NIC,
// the RX ring, the copy cores, receive-window flow control and the window
// accounting. Everything congestion control -- cwnd, the per-stack filter
// state, pacing -- lives behind the TcpStack interface below, in the style
// of FreeBSD's modular tcp_stacks. Three stacks answer the open question
// the DCTCP-only case study could not: do pacing-based and delay-based
// senders read the host network's extra latency as congestion?
//
//  * DctcpStack: the paper's baseline, byte-identical to the pre-refactor
//    receiver (the fig goldens enforce this). Reacts to ECN marks + drops.
//  * BbrStack: BBR-like bandwidth probing. A windowed max filter over
//    per-epoch delivery, a windowed min-RTT filter, and a pacing gate on
//    sender_pump() cycling through probe/drain gains. Ignores marks.
//  * DavisStack: Davis-like delay-based control. Backs off multiplicatively
//    when the epoch's average RTT inflates above the windowed min RTT,
//    otherwise grows additively. Ignores marks.
//
// BBR and Davis sense delay through delivery-clocked ACKs: the engine
// releases their ACK only once the packet has fully DMA-completed into
// memory (ack_on_delivery()), so host-side backlog -- the paper's red
// regime precursor -- appears to the sender as RTT inflation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "common/fields.hpp"
#include "common/units.hpp"

namespace hostnet::net {

struct TcpConfig;  // net/dctcp.hpp

/// Which congestion-control stack drives the TCP sender model.
enum class TcpStackKind : std::uint8_t {
  kDctcp = 0,  ///< ECN-fraction response (the paper's baseline, Fig 19)
  kBbr = 1,    ///< bandwidth-probing with a pacing gate (BBR-like)
  kDavis = 2,  ///< delay-based, backs off on measured RTT inflation
};

/// "dctcp" / "bbr" / "davis".
std::string to_string(TcpStackKind kind);

/// Shared transport telemetry: the per-epoch CC inputs the engine
/// accumulates at its event sites and every stack consumes in on_epoch(),
/// plus the window-scoped cwnd averaging behind avg_cwnd(). One struct so
/// per-stack telemetry cannot drift from the receiver's window accounting;
/// snapshot-carried wholesale by TcpReceiver.
struct TransportTelemetry {
  // Per-epoch accumulators; the engine clears them after each on_epoch().
  std::uint64_t epoch_acks = 0;
  std::uint64_t epoch_marks = 0;
  std::uint64_t epoch_drops = 0;
  Tick epoch_rtt_sum = 0;
  Tick epoch_rtt_min = 0;  ///< 0 = no RTT sample this epoch
  std::uint64_t epoch_rtt_samples = 0;

  // Measurement-window accumulators; reset_counters() clears them (the
  // epoch accumulators survive a mid-epoch reset on purpose).
  double cwnd_sum = 0;
  std::uint64_t cwnd_samples = 0;

  void note_rtt(Tick rtt) {
    epoch_rtt_sum += rtt;
    ++epoch_rtt_samples;
    if (epoch_rtt_min == 0 || rtt < epoch_rtt_min) epoch_rtt_min = rtt;
  }

  Tick epoch_avg_rtt() const {
    return epoch_rtt_samples > 0
               ? epoch_rtt_sum / static_cast<Tick>(epoch_rtt_samples)
               : 0;
  }

  void clear_epoch() {
    epoch_acks = epoch_marks = epoch_drops = 0;
    epoch_rtt_sum = 0;
    epoch_rtt_min = 0;
    epoch_rtt_samples = 0;
  }

  void reset_window() {
    cwnd_sum = 0;
    cwnd_samples = 0;
  }

  double avg_cwnd(double current_cwnd) const {
    return cwnd_samples > 0 ? cwnd_sum / static_cast<double>(cwnd_samples) : current_cwnd;
  }

  bool operator==(const TransportTelemetry&) const = default;
};

/// Every stack saturates at the same cap the original receiver used.
inline constexpr double kMaxCwnd = 2048.0;
inline constexpr double kMinCwnd = 2.0;

/// One congestion-control algorithm driving the TcpReceiver engine. The
/// engine calls the hooks at its event sites; the stack owns nothing but CC
/// state, all of it in its State (the engine carries a copy of it inside its
/// own snapshot).
class TcpStack {
 public:
  virtual ~TcpStack() = default;

  virtual TcpStackKind kind() const = 0;

  /// A packet was handed to the wire (pacing bookkeeping).
  virtual void on_send(Tick now) { (void)now; }
  /// The NIC refused the packet (RX buffer full); counted into
  /// TransportTelemetry::epoch_drops by the engine before this call.
  virtual void on_drop(Tick now) { (void)now; }
  /// An ACK reached the sender; `rtt` is ACK time minus send time.
  virtual void on_ack(Tick rtt, Tick now) {
    (void)rtt;
    (void)now;
  }
  /// Once per base-RTT epoch: consume the epoch's telemetry and update
  /// cwnd. The engine samples cwnd() for avg_cwnd and clears the epoch
  /// accumulators immediately after.
  virtual void on_epoch(const TransportTelemetry& t, Tick now) = 0;

  virtual double cwnd() const = 0;

  /// Ticks until the next packet may enter the wire (0 = send now). Stacks
  /// without pacing return 0, which keeps the engine's event stream free of
  /// pacing timers -- the DCTCP byte-identity guarantee depends on that.
  virtual Tick pacing_gate(Tick now) const {
    (void)now;
    return 0;
  }

  /// When true, the engine clocks this stack's ACKs off DMA-delivery
  /// completion instead of a fixed half-RTT after NIC accept, so measured
  /// RTT carries the host-side backlog (the delay signal).
  virtual bool ack_on_delivery() const { return false; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // The concrete stack's generated Snapshot: a variant over the three stacks,
  // defined below them. A stack restores only from its own alternative
  // (std::get throws on a mismatch).
  struct Snapshot;
  virtual void save_state(Snapshot& out) const = 0;
  virtual void load_state(const Snapshot& s) = 0;

  HOSTNET_COMPONENT_INTERFACE(TcpStack)
};

/// The stacks' base: implements TcpStack's checkpoint pair with the pair that
/// the stack's own member table generates.
template <class Self>
class TcpStackOf : public TcpStack {
 public:
  void save_state(TcpStack::Snapshot& out) const final;
  void load_state(const TcpStack::Snapshot& s) final;
};

/// DCTCP: cwnd follows the ECN mark fraction through the alpha EWMA --
/// the exact arithmetic of the pre-refactor TcpReceiver::rtt_epoch(), in
/// the same order, so goldens stay byte-identical.
class DctcpStack final : public TcpStackOf<DctcpStack> {
 public:
  /// cwnd and the mark-fraction EWMA.
  struct State {
    double cwnd = 16;
    double alpha = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, cwnd, alpha)
  };

  DctcpStack(double initial_cwnd, double g) : g_(g) { st_.cwnd = initial_cwnd; }

  TcpStackKind kind() const override { return TcpStackKind::kDctcp; }

  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return st_.cwnd; }

 private:
  const double g_;
  State st_;
  HOSTNET_COMPONENT(DctcpStack, g_, st_)
};

/// BBR-like: model the pipe, don't fill the buffer. A windowed max filter
/// over per-epoch delivered packets estimates bottleneck bandwidth, a
/// windowed min filter over delivery-clocked RTTs estimates the propagation
/// delay, and packets are paced at gain x estimated bandwidth with a
/// 1.25/0.75 probe-drain cycle. cwnd caps inflight at 2x the estimated
/// BDP. Losses are not a primary signal (the bandwidth filter already sees
/// the delivery collapse), matching BBR's design.
class BbrStack final : public TcpStackOf<BbrStack> {
 public:
  static constexpr std::size_t kWindowEpochs = 10;  ///< bw/RTT filter depth
  static constexpr std::size_t kGainPhases = 8;

  /// The bandwidth and RTT filters and the pacing gate.
  struct State {
    double cwnd = 0;
    std::array<double, kWindowEpochs> bw_window{};  ///< delivered pkts per epoch
    std::array<Tick, kWindowEpochs> rtt_window{};   ///< per-epoch min RTT (0 = none)
    std::uint64_t epochs = 0;                       ///< epochs folded into the filters
    std::uint32_t gain_idx = 0;                     ///< position in the gain cycle
    Tick next_send = 0;                             ///< pacing gate opens here
    Tick pace_interval = 0;                         ///< 0 until first bw estimate
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, cwnd, bw_window, rtt_window, epochs, gain_idx, next_send,
                   pace_interval)
  };

  BbrStack(double initial_cwnd, Tick base_rtt) : base_rtt_(base_rtt) { st_.cwnd = initial_cwnd; }

  TcpStackKind kind() const override { return TcpStackKind::kBbr; }

  void on_send(Tick now) override;
  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return st_.cwnd; }
  Tick pacing_gate(Tick now) const override {
    return st_.next_send > now ? st_.next_send - now : 0;
  }
  bool ack_on_delivery() const override { return true; }

  double max_bw_packets_per_epoch() const;  ///< current bandwidth estimate
  Tick min_rtt() const;                     ///< current propagation estimate

 private:
  const Tick base_rtt_;
  State st_;
  HOSTNET_COMPONENT(BbrStack, base_rtt_, st_)
};

/// Davis-like: pure delay-based control. Tracks the minimum RTT over a
/// sliding window of epochs as the congestion-free baseline; when an
/// epoch's average RTT inflates more than kQueueToleranceFrac of base RTT
/// above it, cwnd backs off multiplicatively (x kBackoff), else it grows
/// by one packet per epoch. Drops still halve (delay-based senders are not
/// loss-blind, they just rarely get that far).
class DavisStack final : public TcpStackOf<DavisStack> {
 public:
  static constexpr std::size_t kWindowEpochs = 16;  ///< min-RTT filter depth
  static constexpr double kBackoff = 0.8;

  /// cwnd and the min-RTT filter.
  struct State {
    double cwnd = 0;
    std::array<Tick, kWindowEpochs> rtt_window{};  ///< per-epoch min RTT (0 = none)
    std::uint64_t epochs = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, cwnd, rtt_window, epochs)
  };

  DavisStack(double initial_cwnd, Tick base_rtt)
      : queue_tolerance_(base_rtt / 8) {
    st_.cwnd = initial_cwnd;
  }

  TcpStackKind kind() const override { return TcpStackKind::kDavis; }

  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return st_.cwnd; }
  bool ack_on_delivery() const override { return true; }

  Tick min_rtt() const;  ///< current congestion-free baseline estimate

 private:
  const Tick queue_tolerance_;
  State st_;
  HOSTNET_COMPONENT(DavisStack, queue_tolerance_, st_)
};

struct TcpStack::Snapshot
    : std::variant<DctcpStack::Snapshot, BbrStack::Snapshot, DavisStack::Snapshot> {
  bool operator==(const Snapshot&) const = default;
};

template <class Self>
void TcpStackOf<Self>::save_state(TcpStack::Snapshot& out) const {
  using S = typename Self::Snapshot;
  if (!std::holds_alternative<S>(out)) out.template emplace<S>();
  static_cast<const Self&>(*this).save_state(std::get<S>(out));
}

template <class Self>
void TcpStackOf<Self>::load_state(const TcpStack::Snapshot& s) {
  static_cast<Self&>(*this).load_state(std::get<typename Self::Snapshot>(s));
}

/// Build the stack a TcpConfig selects (defined in net/tcp_stacks.cpp).
std::unique_ptr<TcpStack> make_tcp_stack(const TcpConfig& cfg);

/// "dctcp" / "bbr" / "davis" to a kind (the `set tcp.stack` values), or
/// nullopt for anything else.
std::optional<TcpStackKind> tcp_stack_kind(const std::string& name);

/// Does nothing. Kept for callers from when linking the net layer had to
/// install a transport factory into the executor.
void install_tcp_factory();

}  // namespace hostnet::net
