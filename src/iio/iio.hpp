// Integrated IO controller (IIO) + PCIe-attached DMA devices.
//
// Every peripheral-to-memory request allocates an entry in the IIO's
// read/write buffer per cacheline; the entry is the P2M domain credit
// (paper sections 3/4.2):
//   * P2M-Write: entry freed when the write is admitted to the MC WPQ
//     (~92 credits, ~300 ns unloaded on the testbeds);
//   * P2M-Read: PCIe reads are non-posted, so the entry is held until data
//     returns from DRAM to the IIO (>164 credits measured; we use 192).
//
// The PCIe link itself serializes one cacheline TLP per t_line; the link's
// effective bandwidth (~14 GB/s writes / ~12.8 GB/s reads per paper
// workloads on Cascade Lake) is what P2M throughput saturates at when
// credits are plentiful.
#pragma once

#include <cstdint>
#include <vector>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "counters/station.hpp"
#include "flow/credit_pool.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::iio {

struct IioConfig {
  std::uint32_t write_credits = 92;   ///< IIO write buffer entries
  std::uint32_t read_credits = 192;   ///< IIO read buffer entries
  Tick t_proc_write = ns(250);  ///< IIO-internal processing for a DMA write
  Tick t_proc_read = ns(250);   ///< IIO-internal processing for a DMA read
  Tick t_to_cha = ns(40);       ///< IIO -> CHA hop
  Tick t_complete_read = ns(60);///< data-at-IIO -> PCIe completion to device
  HOSTNET_FIELDS(IioConfig, write_credits, read_credits, t_proc_write, t_proc_read, t_to_cha,
                 t_complete_read)
};

/// A PCIe device is notified when a credit frees (so it can push its next
/// TLP) and when read data comes back.
class Device {
 public:
  virtual ~Device() = default;
  virtual void on_credit_available(mem::Op op) = 0;
  virtual void on_read_data(std::uint64_t tag, Tick now) = 0;

  /// The waiter the IIO queues when `op`'s buffer is exhausted: one of the
  /// device's flow::OpWaiters, so the wake carries which op's credit freed
  /// (devices with independent RX/TX pumps need this).
  virtual flow::CreditWaiter& credit_waiter(mem::Op op) = 0;
};

class Iio final : public mem::Completer {
 public:
  Iio(sim::Simulator& sim, cha::Cha& cha, const IioConfig& cfg, std::uint16_t id = 0);

  /// Push one cacheline DMA request into the IIO. Returns false when no
  /// credit is available; the device will get on_credit_available().
  bool try_dma(mem::Op op, std::uint64_t addr, Device* dev, std::uint64_t tag);

  std::uint32_t write_credits_free() const { return cfg_.write_credits - st_.write_pool.in_use(); }
  std::uint32_t read_credits_free() const { return cfg_.read_credits - st_.read_pool.in_use(); }

  // -- credit pools (in the host's flow::DomainRegistry) ----------------------
  flow::CreditPool& write_pool() { return st_.write_pool; }  ///< P2M-Write domain
  flow::CreditPool& read_pool() { return st_.read_pool; }    ///< P2M-Read domain

  // -- mem::Completer ---------------------------------------------------------
  void complete(const mem::Request& req, Tick now) override;

  // -- measurement ------------------------------------------------------------
  /// IIO buffer residency = the P2M domain latency ("IIO latency", Fig 6c).
  counters::LatencyStation& write_station() { return st_.write_pool.station(); }
  counters::LatencyStation& read_station() { return st_.read_pool.station(); }
  void reset_counters(Tick now);

  /// Checked-build audit (no-op otherwise): P2M credit conservation --
  /// credits outstanding plus free equals the configured pool on both the
  /// read and write side.
  void verify_invariants() const {
    st_.write_pool.verify();
    st_.read_pool.verify();
  }

  /// A non-posted PCIe read whose data has not yet returned.
  struct Pending {
    Device* dev;
    std::uint64_t tag;
    bool operator==(const Pending&) const = default;
  };

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the traffic mutates but the CHA ingress. Pending reads carry
  // raw Device* pointers into the owning host: same-host restore only.
  struct State {
    flow::CreditPool write_pool;  ///< P2M-Write credits (IIO write buffer)
    flow::CreditPool read_pool;   ///< P2M-Read credits (IIO read buffer)
    std::vector<Pending> pending_reads;  ///< indexed by request tag slot
    /// One bit per pending_reads slot, set while the slot is free: try_dma
    /// takes the lowest set bit, which is the slot a scan from 0 would take.
    std::vector<std::uint64_t> free_slots;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, write_pool, read_pool, pending_reads, free_slots)
  };

 private:
  /// The lowest free pending_reads slot, appending one when all are taken.
  std::uint64_t take_read_slot();

  sim::Simulator& sim_;
  const IioConfig cfg_;
  cha::Ingress ingress_;
  State st_;
  HOSTNET_COMPONENT(Iio, sim_, cfg_, ingress_, st_)
};

}  // namespace hostnet::iio
