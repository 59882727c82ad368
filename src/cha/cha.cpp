#include "cha/cha.hpp"

#include <cassert>
#include <type_traits>

namespace hostnet::cha {

Cha::Cha(sim::Simulator& sim, const ChaConfig& cfg, mc::MemoryController& mc)
    : sim_(sim), cfg_(cfg), mc_(mc) {
  st_.ports.resize(mc.num_channels());
  for (auto& p : st_.ports) {
    p.read_tokens = cfg_.read_fwd_window;
    p.write_tokens = cfg_.write_fwd_window;
  }
  flow::CreditPoolSpec rd;
  rd.name = "cha.read-tor";
  rd.capacity = cfg_.read_tor;
  st_.read_pool.configure(rd);
  flow::CreditPoolSpec wr;
  wr.name = "cha.write-tracker";
  wr.capacity = cfg_.write_tracker;
  wr.reserve = cfg_.write_tracker_peripheral_reserve;
  // Pressure: more writes resident than the forwarding pipeline naturally
  // holds (the measured analogue of the paper's P_fill^WPQ input).
  wr.pressure_threshold = 3 * static_cast<std::int64_t>(st_.ports.size());
  st_.write_pool.configure(wr);
  if (cfg_.ddio) st_.ddio.emplace(cfg_.ddio_capacity_bytes, cfg_.ddio_ways);
}

bool Cha::has_space(mem::Op op, mem::Source source) const {
  // CPU writes may not consume the peripheral reserve.
  if (op == mem::Op::kRead) return st_.read_pool.has_space();
  return st_.write_pool.has_space(/*privileged=*/source == mem::Source::kPeripheral);
}

bool Cha::try_submit(mem::Request req) {
  if (!has_space(req.op, req.source)) return false;
  req.cha_accepted = sim_.now();
  if (req.op == mem::Op::kRead) {
    st_.read_pool.acquire(sim_.now());
    start_read(req);
  } else {
    st_.write_pool.acquire(sim_.now());
    start_write(req);
  }
  return true;
}

void Cha::wait_for_admission(mem::Op op, ChaClient* client, mem::Source source) {
  flow::CreditPool& pool = op == mem::Op::kRead ? st_.read_pool : st_.write_pool;
  pool.enqueue_waiter(&client->admission_waiter(op),
                      /*privileged=*/op == mem::Op::kWrite &&
                          source == mem::Source::kPeripheral);
}

void Cha::record_admission_wait(mem::TrafficClass cls, Tick waited) {
  st_.admission_wait_ns[idx(cls)].add(to_ns(waited));
}

void Cha::start_read(mem::Request req) {
  st_.stations[idx(req.cls())].enter(sim_.now());
  sim_.schedule(cfg_.t_read_proc, [this, req] { route_read(req); });
}

void Cha::start_write(mem::Request req) {
  st_.stations[idx(req.cls())].enter(sim_.now());

  if (req.source == mem::Source::kCpu) {
    // The C2M-Write domain ends here: the core's credit is replenished as
    // soon as the CHA acknowledges admission (writes are asynchronous).
    if (req.completer != nullptr) {
      const mem::Request original = req;
      sim_.schedule(cfg_.t_write_ack, [this, original] {
        original.completer->complete(original, sim_.now());
      });
      req.completer = nullptr;
    }
  } else if (st_.ddio) {
    // DDIO: the DMA write terminates in the LLC. Its credit releases like a
    // C2M write (at the LLC fill); what reaches memory is the evicted
    // victim's write-back, if any.
    const auto outcome = st_.ddio->write(req.addr, sim_.now());
    if (req.completer != nullptr) {
      const mem::Request original = req;
      sim_.schedule(cfg_.t_write_ack, [this, original] {
        original.completer->complete(original, sim_.now());
      });
      req.completer = nullptr;
    }
    if (outcome.hit || !outcome.writeback.has_value()) {
      if (outcome.hit) ++st_.ddio_hits;
      st_.stations[idx(req.cls())].leave(sim_.now(), req.cha_accepted);
      free_write_tracker();
      return;
    }
    req.addr = *outcome.writeback;
  }

  sim_.schedule(cfg_.t_write_proc, [this, req] { route_write(req); });
}

void Cha::route_read(const mem::Request& req) {
  const std::uint32_t ch = mc_.address_map().decode(req.addr).channel;
  Port& p = st_.ports[ch];
  // Nothing queued ahead and a token free: forward now rather than queue
  // the request and pump it straight back out.
  if (p.read_pending.empty() && p.read_tokens > 0) {
    forward_read(ch, req);
    return;
  }
  p.read_pending.push_back(Transit{req});
  pump_reads(ch);
}

void Cha::route_write(const mem::Request& req) {
  const std::uint32_t ch = mc_.address_map().decode(req.addr).channel;
  Port& p = st_.ports[ch];
  auto& pending = p.write_pending;
  if (pending.empty() && p.write_tokens > 0) {
    forward_write(ch, req);
    return;
  }
  if (cfg_.peripheral_write_priority && req.source == mem::Source::kPeripheral) {
    // Peripheral writes bypass the CPU write-back backlog: insert after any
    // queued peripheral writes but ahead of all CPU ones.
    std::size_t pos = 0;
    while (pos < pending.size() && pending[pos].req.source == mem::Source::kPeripheral) ++pos;
    pending.insert(pos, Transit{req});
  } else {
    pending.push_back(Transit{req});
  }
  pump_writes(ch);
}

void Cha::pump_reads(std::uint32_t ch) {
  Port& p = st_.ports[ch];
  while (p.read_tokens > 0 && !p.read_pending.empty()) {
    const mem::Request req = p.read_pending.front().req;
    p.read_pending.pop_front();
    forward_read(ch, req);
  }
}

void Cha::pump_writes(std::uint32_t ch) {
  Port& p = st_.ports[ch];
  while (p.write_tokens > 0 && !p.write_pending.empty()) {
    const mem::Request req = p.write_pending.front().req;
    p.write_pending.pop_front();
    forward_write(ch, req);
  }
}

void Cha::forward_read(std::uint32_t ch, const mem::Request& req) {
  --st_.ports[ch].read_tokens;
  auto arrive = [this, ch, req] {
    if (mc_.channel(ch).rpq_has_space()) {
      admit_read_to_rpq(ch, req);
    } else {
      st_.ports[ch].read_parked.push_back(Transit{req});
    }
  };
  static_assert(sizeof(arrive) <= sim::Event::kInlineBytes &&
                    std::is_trivially_copyable_v<decltype(arrive)>,
                "per-line CHA->MC read hop must stay in the inline Event buffer");
  sim_.schedule(cfg_.t_read_fwd, arrive);
}

void Cha::forward_write(std::uint32_t ch, const mem::Request& req) {
  --st_.ports[ch].write_tokens;
  auto arrive = [this, ch, req] {
    if (mc_.channel(ch).wpq_has_space()) {
      admit_write_to_wpq(ch, req);
    } else {
      st_.ports[ch].write_parked.push_back(Transit{req});
    }
  };
  static_assert(sizeof(arrive) <= sim::Event::kInlineBytes &&
                    std::is_trivially_copyable_v<decltype(arrive)>,
                "per-line CHA->MC write hop must stay in the inline Event buffer");
  sim_.schedule(cfg_.t_write_fwd, arrive);
}

void Cha::admit_read_to_rpq(std::uint32_t ch, const mem::Request& req) {
  st_.ports[ch].read_tokens++;
  mc_.channel(ch).enqueue_read(req, mc_.address_map().decode(req.addr));
  pump_reads(ch);
}

void Cha::admit_write_to_wpq(std::uint32_t ch, const mem::Request& req) {
  const Tick now = sim_.now();
  st_.ports[ch].write_tokens++;
  mc_.channel(ch).enqueue_write(req, mc_.address_map().decode(req.addr));
  ++st_.lines_written[idx(req.cls())];
  st_.stations[idx(req.cls())].leave(now, req.cha_accepted);
  // WPQ admission ends the P2M-Write domain: replenish the IIO credit.
  if (req.completer != nullptr) req.completer->complete(req, now);
  free_write_tracker();
  pump_writes(ch);
}

void Cha::on_read_data(const mem::Request& req, Tick now) {
  ++st_.lines_read[idx(req.cls())];
  st_.stations[idx(req.cls())].leave(now, req.cha_accepted);
  free_read_tor();
  const Tick hop = req.source == mem::Source::kCpu ? cfg_.t_return_core : cfg_.t_return_iio;
  sim_.schedule(hop, [this, req] {
    if (req.completer != nullptr) req.completer->complete(req, sim_.now());
  });
}

void Cha::on_wpq_slot_freed(std::uint32_t channel, Tick /*now*/) {
  Port& p = st_.ports[channel];
  // The slot was freed when the write issued, one t_trans ago: a write that
  // arrived while none was parked may have taken it since.
  if (!p.write_parked.empty() && mc_.channel(channel).wpq_has_space()) {
    const mem::Request req = p.write_parked.front().req;
    p.write_parked.pop_front();
    admit_write_to_wpq(channel, req);
  }
}

void Cha::on_rpq_slot_freed(std::uint32_t channel, Tick /*now*/) {
  Port& p = st_.ports[channel];
  if (!p.read_parked.empty()) {
    const mem::Request req = p.read_parked.front().req;
    p.read_parked.pop_front();
    admit_read_to_rpq(channel, req);
  }
}

void Cha::free_read_tor() {
  st_.read_pool.release(sim_.now());
  st_.read_pool.notify();
}

void Cha::free_write_tracker() {
  st_.write_pool.release(sim_.now());
  st_.write_pool.notify();
}

double Cha::mean_admission_wait_ns(mem::TrafficClass cls) const {
  return st_.admission_wait_ns[idx(cls)].mean();
}

void Cha::reset_counters(Tick now) {
  for (auto& s : st_.stations) s.reset(now);
  for (auto& a : st_.admission_wait_ns) a.reset();
  st_.lines_read = {};
  st_.lines_written = {};
  st_.read_pool.reset_telemetry(now);
  st_.write_pool.reset_telemetry(now);
  st_.ddio_hits = 0;
}

}  // namespace hostnet::cha
