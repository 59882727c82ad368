#include "net/nic_device.hpp"

#include "net/dctcp.hpp"

namespace hostnet::net {

NicDevice::NicDevice(sim::Simulator& sim, iio::Iio& iio, const NicConfig& cfg,
                     double pcie_gb_per_s, TcpReceiver* receiver)
    : sim_(sim),
      iio_(iio),
      cfg_(cfg),
      t_line_(serialization_ticks(kCachelineBytes, pcie_gb_per_s)),
      t_packet_(serialization_ticks(cfg.mtu_bytes, cfg.wire_gb_per_s)),
      receiver_(receiver) {}

void NicDevice::start() {
  if (cfg_.autonomous) schedule_arrival();
}

void NicDevice::schedule_arrival() {
  if (st_.arrival_scheduled || st_.paused) return;
  st_.arrival_scheduled = true;
  sim_.schedule(t_packet_, [this] {
    st_.arrival_scheduled = false;
    arrival();
  });
}

void NicDevice::arrival() {
  if (st_.paused) return;
  if (st_.buffer_bytes + cfg_.mtu_bytes > cfg_.rx_buffer_bytes) {
    if (cfg_.pfc) {
      // Threshold configuration should pause before overflow; treat an
      // overflowing arrival as paused wire time rather than loss.
      note_pause(sim_.now(), true);
      return;
    }
    ++st_.packets_dropped;
    schedule_arrival();
    return;
  }
  st_.buffer_bytes += cfg_.mtu_bytes;
  st_.bytes_accepted += cfg_.mtu_bytes;
  ++st_.packets_accepted;
  if (cfg_.pfc && st_.buffer_bytes >= cfg_.pause_threshold) note_pause(sim_.now(), true);
  pump();
  schedule_arrival();
}

bool NicDevice::offer_packet(bool* ecn_marked) {
  if (ecn_marked != nullptr) *ecn_marked = false;
  if (st_.buffer_bytes + cfg_.mtu_bytes > cfg_.rx_buffer_bytes) {
    ++st_.packets_dropped;
    return false;
  }
  st_.buffer_bytes += cfg_.mtu_bytes;
  st_.bytes_accepted += cfg_.mtu_bytes;
  ++st_.packets_accepted;
  if (st_.buffer_bytes >= cfg_.ecn_threshold) {
    ++st_.packets_marked;
    if (ecn_marked != nullptr) *ecn_marked = true;
  }
  pump();
  return true;
}

void NicDevice::pump() {
  if (st_.link_busy || st_.waiting_write_credit) return;
  if (st_.buffer_bytes < kCachelineBytes) return;
  const std::uint64_t addr =
      cfg_.region.base + (st_.dma_line_cursor % cfg_.region.lines()) * kCachelineBytes;
  if (!iio_.try_dma(mem::Op::kWrite, addr, this, 0)) {
    st_.waiting_write_credit = true;
    return;
  }
  st_.buffer_bytes -= kCachelineBytes;
  st_.bytes_dma += kCachelineBytes;
  ++st_.dma_line_cursor;
  if (++st_.lines_in_current_packet >= cfg_.mtu_bytes / kCachelineBytes) {
    st_.lines_in_current_packet = 0;
    if (receiver_ != nullptr) receiver_->on_packet_delivered(sim_.now());
  }
  if (st_.paused && st_.buffer_bytes <= cfg_.resume_threshold) {
    note_pause(sim_.now(), false);
    schedule_arrival();
  }
  st_.link_busy = true;
  sim_.schedule(t_line_, [this] {
    st_.link_busy = false;
    pump();
  });
}

void NicDevice::on_credit_available(mem::Op /*op*/) {
  // The NIC only writes, so the freed credit is a write credit.
  st_.waiting_write_credit = false;
  pump();
}

void NicDevice::on_read_data(std::uint64_t /*tag*/, Tick /*now*/) {}  // issues no reads

void NicDevice::note_pause(Tick now, bool pause) {
  if (pause == st_.paused) return;
  st_.paused = pause;
  if (pause) {
    st_.pause_started = now;
  } else {
    st_.paused_time += now - st_.pause_started;
  }
}

TransportOutcome NicDevice::collect(Tick now) const {
  TransportOutcome t;
  t.goodput_gbps = gb_per_s(st_.bytes_accepted, now - st_.window_start);
  t.pause_fraction = pause_fraction(now);
  return t;
}

double NicDevice::pause_fraction(Tick now) const {
  const Tick window = now - st_.window_start;
  if (window <= 0) return 0;
  Tick paused = st_.paused_time;
  if (st_.paused) paused += now - st_.pause_started;
  return static_cast<double>(paused) / static_cast<double>(window);
}

void NicDevice::reset_counters(Tick now) {
  st_.bytes_accepted = st_.bytes_dma = 0;
  st_.packets_accepted = st_.packets_dropped = st_.packets_marked = 0;
  st_.paused_time = 0;
  if (st_.paused) st_.pause_started = now;
  st_.window_start = now;
}

}  // namespace hostnet::net
