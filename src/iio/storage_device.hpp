// NVMe-like storage device generating P2M traffic over PCIe (the paper's
// FIO workloads, section 2.1/2.2):
//
//   * storage READ  -> DMA *writes* into host memory  (P2M-Write)
//   * storage WRITE -> DMA *reads* from host memory   (P2M-Read)
//
// The device streams cacheline TLPs, paced by the PCIe link's effective
// bandwidth, gated by IIO credits. Large sequential requests (8 MB) model
// the paper's FIO configuration; 4 KB queue-depth-1 models the low-load
// probe used to measure the unloaded P2M-Write domain latency (Fig 6c).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fields.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "iio/iio.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::iio {

struct StorageConfig {
  mem::Op host_op = mem::Op::kWrite;     ///< memory-side op (kWrite = storage read)
  std::uint64_t request_bytes = 8ull << 20;
  std::uint32_t queue_depth = 4;
  double link_gb_per_s = 14.0;           ///< effective PCIe bandwidth
  Tick per_request_latency = us(8);      ///< device-internal latency per request
  mem::Region region{};
  /// Fraction of requests issued with the *opposite* op (mixed read/write
  /// storage workloads; 0 = pure `host_op`). Chosen per request, so an 8 MB
  /// request is all-read or all-write like FIO's rwmixread behaviour.
  double mixed_fraction = 0.0;
  HOSTNET_FIELDS(StorageConfig, host_op, request_bytes, queue_depth, link_gb_per_s,
                 per_request_latency, region, mixed_fraction)
};

class StorageDevice final : public Device {
 public:
  StorageDevice(sim::Simulator& sim, Iio& iio, const StorageConfig& cfg);

  void start();

  // -- iio::Device ------------------------------------------------------------
  void on_credit_available(mem::Op op) override;
  void on_read_data(std::uint64_t tag, Tick now) override;
  flow::CreditWaiter& credit_waiter(mem::Op op) override { return waiters_[op]; }

  // -- measurement ------------------------------------------------------------
  std::uint64_t bytes_transferred() const { return st_.bytes; }
  std::uint64_t requests_completed() const { return st_.requests_done; }
  void reset_counters() {
    st_.bytes = 0;
    st_.requests_done = 0;
  }

  /// One in-flight storage request (queue-depth slot).
  struct Slot {
    bool ready = false;           ///< device-side latency elapsed, lines flowing
    std::uint64_t next_line = 0;  ///< next region line to DMA
    std::uint32_t lines_to_issue = 0;
    std::uint32_t data_pending = 0;  ///< (reads) lines whose data is still in flight
    mem::Op op = mem::Op::kWrite;    ///< this request's memory-side op
    bool operator==(const Slot&) const = default;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the device's traffic mutates.
  struct State {
    Rng rng{0x5707A6EULL};
    std::vector<Slot> slots;
    RingBuffer<std::uint32_t> ready_order;  ///< slots with lines left to issue
    std::uint64_t next_region_line = 0;
    std::uint64_t interleave_counter = 0;
    bool link_busy = false;
    bool waiting_credit = false;
    std::uint64_t bytes = 0;
    std::uint64_t requests_done = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, rng, slots, ready_order, next_region_line, interleave_counter,
                   link_busy, waiting_credit, bytes, requests_done)
  };

 private:
  void issue_request(std::uint32_t slot);
  void pump();
  void request_done(std::uint32_t slot);

  static constexpr std::uint64_t kInterleaveLines = 16;  ///< 1 KB bursts per stream

  sim::Simulator& sim_;
  Iio& iio_;
  const StorageConfig cfg_;
  const Tick t_line_;
  flow::OpWaiters<StorageDevice, &StorageDevice::on_credit_available> waiters_{*this};
  State st_;
  HOSTNET_COMPONENT(StorageDevice, sim_, iio_, cfg_, t_line_, waiters_, st_)
};

}  // namespace hostnet::iio
