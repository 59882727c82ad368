#include "iio/iio.hpp"

#include <bit>
#include <cassert>

#include "sim/trace.hpp"

namespace hostnet::iio {

Iio::Iio(sim::Simulator& sim, cha::Cha& cha, const IioConfig& cfg, std::uint16_t id)
    : sim_(sim), cfg_(cfg), ingress_(sim, cha, mem::Source::kPeripheral, id, *this) {
  // One freed credit wakes one device (which re-tries and re-registers if it
  // loses the race); a device waits at most once per op.
  flow::CreditPoolSpec wr;
  wr.name = "iio.write-credits";
  wr.domain = mem::TrafficClass::kP2MWrite;
  wr.capacity = cfg_.write_credits;
  wr.wake = flow::WakePolicy::kOnePerNotify;
  wr.dedup_waiters = true;
  st_.write_pool.configure(wr);
  flow::CreditPoolSpec rd;
  rd.name = "iio.read-credits";
  rd.domain = mem::TrafficClass::kP2MRead;
  rd.capacity = cfg_.read_credits;
  rd.wake = flow::WakePolicy::kOnePerNotify;
  rd.dedup_waiters = true;
  st_.read_pool.configure(rd);
}

bool Iio::try_dma(mem::Op op, std::uint64_t addr, Device* dev, std::uint64_t tag) {
  const Tick now = sim_.now();
  if (op == mem::Op::kWrite) {
    if (!st_.write_pool.has_space()) {
      st_.write_pool.enqueue_waiter(&dev->credit_waiter(op));
      return false;
    }
    st_.write_pool.acquire(now);
    const mem::Request req = ingress_.request(op, addr, now);
    sim_.schedule(cfg_.t_proc_write + cfg_.t_to_cha, [this, req] { ingress_.submit(req); });
    return true;
  }

  if (!st_.read_pool.has_space()) {
    st_.read_pool.enqueue_waiter(&dev->credit_waiter(op));
    return false;
  }
  st_.read_pool.acquire(now);
  // Remember who gets the data back.
  const std::uint64_t slot = take_read_slot();
  st_.pending_reads[slot] = Pending{dev, tag};
  const mem::Request req = ingress_.request(op, addr, now, slot);
  sim_.schedule(cfg_.t_proc_read + cfg_.t_to_cha, [this, req] { ingress_.submit(req); });
  return true;
}

std::uint64_t Iio::take_read_slot() {
  for (std::size_t w = 0; w < st_.free_slots.size(); ++w) {
    if (const std::uint64_t bits = st_.free_slots[w]; bits != 0) {
      st_.free_slots[w] = bits & (bits - 1);
      return w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
    }
  }
  const std::uint64_t slot = st_.pending_reads.size();
  st_.pending_reads.push_back(Pending{});
  if (slot % 64 == 0) st_.free_slots.push_back(0);
  return slot;
}

void Iio::complete(const mem::Request& req, Tick now) {
  if (req.op == mem::Op::kWrite) {
    // Admitted to the MC WPQ: P2M-Write credit replenished.
    st_.write_pool.release(now, req.created);
    if (auto* tr = sim_.tracer()) {
      tr->complete_event("p2m-write", "domain", req.created, now - req.created,
                         sim::Tracer::kTrackIio);
      tr->counter("iio-write-credits", now, static_cast<double>(st_.write_pool.in_use()));
    }
    st_.write_pool.notify();
    return;
  }
  // Data returned to the IIO: P2M-Read credit replenished; complete the
  // PCIe non-posted transaction back to the device.
  st_.read_pool.release(now, req.created);
  if (auto* tr = sim_.tracer())
    tr->complete_event("p2m-read", "domain", req.created, now - req.created,
                       sim::Tracer::kTrackIio);
  const Pending p = st_.pending_reads[req.tag];
  st_.pending_reads[req.tag] = Pending{};
  const std::uint64_t bit = std::uint64_t{1} << (req.tag % 64);
  assert((st_.free_slots[req.tag / 64] & bit) == 0);
  st_.free_slots[req.tag / 64] |= bit;
  st_.read_pool.notify();
  if (p.dev != nullptr) {
    sim_.schedule(cfg_.t_complete_read,
                  [this, p] { p.dev->on_read_data(p.tag, sim_.now()); });
  }
}

void Iio::reset_counters(Tick now) {
  st_.write_pool.reset_telemetry(now);
  st_.read_pool.reset_telemetry(now);
}

}  // namespace hostnet::iio
