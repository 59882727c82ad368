#include "net/nic_device.hpp"

#include <cassert>

namespace hostnet::net {

namespace {
/// The TX path reads from the RX region unless given its own.
NicConfig with_tx_region(NicConfig cfg) {
  if (cfg.tx_region.lines() == 0) cfg.tx_region = cfg.region;
  return cfg;
}
}  // namespace

NicDevice::NicDevice(sim::Simulator& sim, iio::Iio& iio, const NicConfig& cfg,
                     // hostnet-lint: allow(hot-alloc)  -- one-time wiring
                     std::function<void(Tick)> packet_delivered)
    : sim_(sim),
      iio_(iio),
      cfg_(with_tx_region(cfg)),
      t_line_(serialization_ticks(kCachelineBytes, cfg.pcie_gb_per_s)),
      t_packet_(serialization_ticks(cfg.mtu_bytes, cfg.wire_gb_per_s)),
      t_tx_line_(cfg.tx_gb_per_s > 0
                     ? serialization_ticks(kCachelineBytes, cfg.tx_gb_per_s)
                     : 0),
      packet_delivered_(std::move(packet_delivered)) {}

void NicDevice::start() {
  if (cfg_.autonomous) schedule_arrival();
  if (cfg_.tx_gb_per_s > 0) tx_pump();
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
    if (packet_delivered_) packet_delivered_(sim_.now());
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

// TX: stream DMA reads from host memory at the TX wire rate. Shares the
// device with the RX pump but stalls on the IIO *read* pool, so it must
// wait -- and be woken -- independently of the writes.
void NicDevice::tx_pump() {
  if (st_.tx_link_busy || st_.waiting_read_credit) return;
  const std::uint64_t addr =
      cfg_.tx_region.base +
      (st_.tx_line_cursor % cfg_.tx_region.lines()) * kCachelineBytes;
  if (!iio_.try_dma(mem::Op::kRead, addr, this, st_.tx_line_cursor)) {
    st_.waiting_read_credit = true;
    return;
  }
  ++st_.tx_line_cursor;
  st_.tx_link_busy = true;
  sim_.schedule(t_tx_line_, [this] {
    st_.tx_link_busy = false;
    tx_pump();
  });
}

void NicDevice::on_credit_available(mem::Op op) {
  if (op == mem::Op::kWrite) {
    st_.waiting_write_credit = false;
    pump();
  } else {
    st_.waiting_read_credit = false;
    tx_pump();
  }
}

void NicDevice::on_read_data(std::uint64_t /*tag*/, Tick /*now*/) {
  st_.bytes_tx += kCachelineBytes;  // payload fetched; hits the wire
}

void NicDevice::note_pause(Tick now, bool pause) {
  if (pause == st_.paused) return;
  st_.paused = pause;
  if (pause) {
    st_.pause_started = now;
  } else {
    st_.paused_time += now - st_.pause_started;
  }
}

double NicDevice::pause_fraction(Tick now) const {
  const Tick window = now - st_.window_start;
  if (window <= 0) return 0;
  Tick paused = st_.paused_time;
  if (st_.paused) paused += now - st_.pause_started;
  return static_cast<double>(paused) / static_cast<double>(window);
}

void NicDevice::reset_counters(Tick now) {
  st_.bytes_accepted = st_.bytes_dma = st_.bytes_tx = 0;
  st_.packets_accepted = st_.packets_dropped = st_.packets_marked = 0;
  st_.paused_time = 0;
  if (st_.paused) st_.pause_started = now;
  st_.window_start = now;
}

}  // namespace hostnet::net
