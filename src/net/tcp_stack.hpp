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

#include "common/snapshot.hpp"
#include "common/units.hpp"
#include "core/experiment.hpp"

namespace hostnet::net {

struct TcpConfig;  // net/dctcp.hpp

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
};

/// Every stack saturates at the same cap the original receiver used.
inline constexpr double kMaxCwnd = 2048.0;
inline constexpr double kMinCwnd = 2.0;

/// One congestion-control algorithm driving the TcpReceiver engine. The
/// engine calls the hooks at its event sites; the stack owns nothing but CC
/// state, all of it covered by the per-stack Snapshot contract below (the
/// engine carries the snapshot blob inside its own).
class TcpStack {
 public:
  virtual ~TcpStack() = default;

  virtual core::TcpStackKind kind() const = 0;

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

  // Type-erased checkpoint plumbing: the engine stores the stack's POD
  // Snapshot as an opaque blob inside TcpReceiver::Snapshot. Same-host
  // restore only, like every external component.
  virtual std::shared_ptr<const void> save_blob() const = 0;
  virtual void load_blob(const void* blob) = 0;
};

/// DCTCP: cwnd follows the ECN mark fraction through the alpha EWMA --
/// the exact arithmetic of the pre-refactor TcpReceiver::rtt_epoch(), in
/// the same order, so goldens stay byte-identical.
class DctcpStack final : public TcpStack {
 public:
  DctcpStack(double initial_cwnd, double g) : cwnd_(initial_cwnd), g_(g) {}

  core::TcpStackKind kind() const override { return core::TcpStackKind::kDctcp; }

  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return cwnd_; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct Snapshot {
    double cwnd = 16;
    double alpha = 0;
  };

  void save_state(Snapshot& out) const {
    out.cwnd = cwnd_;
    out.alpha = alpha_;
  }

  void load_state(const Snapshot& s) {
    cwnd_ = s.cwnd;
    alpha_ = s.alpha;
  }

  std::shared_ptr<const void> save_blob() const override;
  void load_blob(const void* blob) override;

 private:
  double cwnd_;
  double alpha_ = 0;
  // hostnet-audit: skip(g_, construction config (dctcp_g); immutable after build)
  double g_;
};

/// BBR-like: model the pipe, don't fill the buffer. A windowed max filter
/// over per-epoch delivered packets estimates bottleneck bandwidth, a
/// windowed min filter over delivery-clocked RTTs estimates the propagation
/// delay, and packets are paced at gain x estimated bandwidth with a
/// 1.25/0.75 probe-drain cycle. cwnd caps inflight at 2x the estimated
/// BDP. Losses are not a primary signal (the bandwidth filter already sees
/// the delivery collapse), matching BBR's design.
class BbrStack final : public TcpStack {
 public:
  static constexpr std::size_t kWindowEpochs = 10;  ///< bw/RTT filter depth
  static constexpr std::size_t kGainPhases = 8;

  BbrStack(double initial_cwnd, Tick base_rtt) : cwnd_(initial_cwnd), base_rtt_(base_rtt) {}

  core::TcpStackKind kind() const override { return core::TcpStackKind::kBbr; }

  void on_send(Tick now) override;
  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return cwnd_; }
  Tick pacing_gate(Tick now) const override {
    return next_send_ > now ? next_send_ - now : 0;
  }
  bool ack_on_delivery() const override { return true; }

  double max_bw_packets_per_epoch() const;  ///< current bandwidth estimate
  Tick min_rtt() const;                     ///< current propagation estimate

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct Snapshot {
    double cwnd = 0;
    std::array<double, kWindowEpochs> bw_window{};
    std::array<Tick, kWindowEpochs> rtt_window{};
    std::uint64_t epochs = 0;
    std::uint32_t gain_idx = 0;
    Tick next_send = 0;
    Tick pace_interval = 0;
  };

  void save_state(Snapshot& out) const {
    out.cwnd = cwnd_;
    out.bw_window = bw_window_;
    out.rtt_window = rtt_window_;
    out.epochs = epochs_;
    out.gain_idx = gain_idx_;
    out.next_send = next_send_;
    out.pace_interval = pace_interval_;
  }

  void load_state(const Snapshot& s) {
    cwnd_ = s.cwnd;
    bw_window_ = s.bw_window;
    rtt_window_ = s.rtt_window;
    epochs_ = s.epochs;
    gain_idx_ = s.gain_idx;
    next_send_ = s.next_send;
    pace_interval_ = s.pace_interval;
  }

  std::shared_ptr<const void> save_blob() const override;
  void load_blob(const void* blob) override;

 private:
  double cwnd_;
  // hostnet-audit: skip(base_rtt_, construction config; immutable after build)
  Tick base_rtt_;
  std::array<double, kWindowEpochs> bw_window_{};  ///< delivered pkts per epoch
  std::array<Tick, kWindowEpochs> rtt_window_{};   ///< per-epoch min RTT (0 = none)
  std::uint64_t epochs_ = 0;                       ///< epochs folded into the filters
  std::uint32_t gain_idx_ = 0;                     ///< position in the gain cycle
  Tick next_send_ = 0;                             ///< pacing gate opens here
  Tick pace_interval_ = 0;                         ///< 0 until first bw estimate
};

/// Davis-like: pure delay-based control. Tracks the minimum RTT over a
/// sliding window of epochs as the congestion-free baseline; when an
/// epoch's average RTT inflates more than kQueueToleranceFrac of base RTT
/// above it, cwnd backs off multiplicatively (x kBackoff), else it grows
/// by one packet per epoch. Drops still halve (delay-based senders are not
/// loss-blind, they just rarely get that far).
class DavisStack final : public TcpStack {
 public:
  static constexpr std::size_t kWindowEpochs = 16;  ///< min-RTT filter depth
  static constexpr double kBackoff = 0.8;

  DavisStack(double initial_cwnd, Tick base_rtt)
      : cwnd_(initial_cwnd), queue_tolerance_(base_rtt / 8) {}

  core::TcpStackKind kind() const override { return core::TcpStackKind::kDavis; }

  void on_epoch(const TransportTelemetry& t, Tick now) override;

  double cwnd() const override { return cwnd_; }
  bool ack_on_delivery() const override { return true; }

  Tick min_rtt() const;  ///< current congestion-free baseline estimate

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  struct Snapshot {
    double cwnd = 0;
    std::array<Tick, kWindowEpochs> rtt_window{};
    std::uint64_t epochs = 0;
  };

  void save_state(Snapshot& out) const {
    out.cwnd = cwnd_;
    out.rtt_window = rtt_window_;
    out.epochs = epochs_;
  }

  void load_state(const Snapshot& s) {
    cwnd_ = s.cwnd;
    rtt_window_ = s.rtt_window;
    epochs_ = s.epochs;
  }

  std::shared_ptr<const void> save_blob() const override;
  void load_blob(const void* blob) override;

 private:
  double cwnd_;
  // hostnet-audit: skip(queue_tolerance_, derived from base_rtt at construction; never mutates)
  Tick queue_tolerance_;
  std::array<Tick, kWindowEpochs> rtt_window_{};  ///< per-epoch min RTT (0 = none)
  std::uint64_t epochs_ = 0;
};

HOSTNET_SNAPSHOT_COVERS(DctcpStack);
HOSTNET_SNAPSHOT_COVERS(BbrStack);
HOSTNET_SNAPSHOT_COVERS(DavisStack);

/// Build the stack a TcpConfig selects (defined in net/tcp_stacks.cpp).
std::unique_ptr<TcpStack> make_tcp_stack(const TcpConfig& cfg);

/// Map a TcpSpec onto the receiver's full config (unspecified knobs keep
/// the TcpConfig defaults).
TcpConfig tcp_config(const core::TcpSpec& spec);

/// Canonical TcpSpec for a stack kind (the fleet grammar's tcp_* zoo).
core::TcpSpec tcp_spec(core::TcpStackKind kind);

/// Fleet p2m-workload zoo entry: "tcp_dctcp" / "tcp_bbr" / "tcp_davis" to a
/// spec, or nullopt for non-TCP workload names.
std::optional<core::TcpSpec> tcp_p2m_workload(const std::string& name);

/// "dctcp" / "bbr" / "davis" to a kind (the `set tcp.stack` values), or
/// nullopt for anything else.
std::optional<core::TcpStackKind> tcp_stack_kind(const std::string& name);

/// Point the core executor at the net layer's P2M transport factory (TCP
/// receivers and RDMA-write NICs). Idempotent; runs at static-init time
/// whenever net/tcp_stacks.cpp is linked, and callable explicitly by
/// embedders that want to be certain.
void install_tcp_factory();

}  // namespace hostnet::net
