#include "iio/storage_device.hpp"

#include <cassert>

namespace hostnet::iio {

StorageDevice::StorageDevice(sim::Simulator& sim, Iio& iio, const StorageConfig& cfg)
    : sim_(sim),
      iio_(iio),
      cfg_(cfg),
      t_line_(serialization_ticks(kCachelineBytes, cfg.link_gb_per_s)) {
  st_.slots.resize(cfg.queue_depth);
}

void StorageDevice::start() {
  for (std::uint32_t s = 0; s < st_.slots.size(); ++s) issue_request(s);
}

void StorageDevice::issue_request(std::uint32_t slot) {
  sim_.schedule(cfg_.per_request_latency, [this, slot] {
    Slot& sl = st_.slots[slot];
    const auto lines = static_cast<std::uint32_t>(cfg_.request_bytes / kCachelineBytes);
    sl.ready = true;
    sl.lines_to_issue = lines;
    sl.data_pending = lines;
    sl.op = cfg_.mixed_fraction > 0 && st_.rng.chance(cfg_.mixed_fraction)
                ? (cfg_.host_op == mem::Op::kWrite ? mem::Op::kRead : mem::Op::kWrite)
                : cfg_.host_op;
    sl.next_line = st_.next_region_line;
    st_.next_region_line = (st_.next_region_line + lines) % cfg_.region.lines();
    st_.ready_order.push_back(slot);
    pump();
  });
}

void StorageDevice::pump() {
  if (st_.link_busy || st_.waiting_credit || st_.ready_order.empty()) return;
  const std::uint32_t slot = st_.ready_order.front();
  Slot& sl = st_.slots[slot];
  const std::uint64_t addr = cfg_.region.base + sl.next_line * kCachelineBytes;

  if (!iio_.try_dma(sl.op, addr, this, slot)) {
    st_.waiting_credit = true;  // on_credit_available() resumes the stream
    return;
  }

  sl.next_line = (sl.next_line + 1) % cfg_.region.lines();
  --sl.lines_to_issue;
  if (sl.op == mem::Op::kWrite) st_.bytes += kCachelineBytes;
  if (sl.lines_to_issue == 0) {
    st_.ready_order.pop_front();
    // A storage read is complete once all its payload has been DMA-written
    // toward memory; a storage write completes when all data has been read
    // back out of host memory (tracked in on_read_data).
    if (sl.op == mem::Op::kWrite) request_done(slot);
  } else if (st_.interleave_counter++ % kInterleaveLines == 0 && st_.ready_order.size() > 1) {
    // Round-robin across outstanding requests: the paper's P2M load comes
    // from several NVMe devices in parallel, so the DMA stream the host
    // sees interleaves multiple sequential request streams.
    st_.ready_order.push_back(st_.ready_order.front());
    st_.ready_order.pop_front();
  }

  st_.link_busy = true;
  sim_.schedule(t_line_, [this] {
    st_.link_busy = false;
    pump();
  });
}

void StorageDevice::on_credit_available(mem::Op /*op*/) {
  st_.waiting_credit = false;
  pump();
}

void StorageDevice::on_read_data(std::uint64_t tag, Tick /*now*/) {
  Slot& sl = st_.slots[static_cast<std::uint32_t>(tag)];
  st_.bytes += kCachelineBytes;
  assert(sl.data_pending > 0);
  --sl.data_pending;
  if (sl.data_pending == 0 && sl.lines_to_issue == 0)
    request_done(static_cast<std::uint32_t>(tag));
}

void StorageDevice::request_done(std::uint32_t slot) {
  ++st_.requests_done;
  st_.slots[slot] = Slot{};
  issue_request(slot);
}

}  // namespace hostnet::iio
