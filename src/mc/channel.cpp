#include "mc/channel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "sim/trace.hpp"

namespace hostnet::mc {

Channel::Channel(sim::Simulator& sim, const ChannelConfig& cfg, std::uint32_t banks,
                 std::uint32_t index, ChannelListener* listener)
    : sim_(sim),
      cfg_(cfg),
      index_(index),
      listener_(listener) {
  st_.rpq = SlotQueue(cfg.rpq_capacity, cfg.prep_window, banks);
  st_.wpq = SlotQueue(cfg.wpq_capacity, cfg.prep_window, banks);
  st_.banks.resize(banks);
  st_.banks_owned.assign((banks + 63) / 64, 0);
  st_.counters = counters::McChannelCounters(banks, cfg.wpq_capacity);
  // Wake-up events in flight are bounded by the distinct ticks requested
  // between fires (stale-write deadlines plus near-term bus/bank kicks);
  // reserve enough that the tracking itself never allocates in steady state.
  st_.kick_inflight.reserve(64);
  flow::CreditPoolSpec rpq;
  rpq.name = "mc.rpq";
  rpq.capacity = cfg.rpq_capacity;
  st_.rpq_pool.configure(rpq);
  flow::CreditPoolSpec wpq;
  wpq.name = "mc.wpq";
  wpq.capacity = cfg.wpq_capacity;
  wpq.high_watermark = cfg.wpq_high_wm;
  wpq.low_watermark = cfg.wpq_low_wm;
  st_.wpq_pool.configure(wpq);
}

void Channel::enqueue_read(const mem::Request& req, const dram::Coord& coord) {
  assert(rpq_has_space());
  st_.rpq.push_back(req, coord, sim_.now(), st_.next_entry_id++);
  st_.rpq_pool.acquire(sim_.now());
  kick();
}

void Channel::enqueue_write(const mem::Request& req, const dram::Coord& coord) {
  assert(wpq_has_space());
  st_.wpq.push_back(req, coord, sim_.now(), st_.next_entry_id++);
  st_.wpq_pool.acquire(sim_.now());
  // A lone write enqueued while the controller idles in read mode must not
  // wait forever: arm the stale-write timer.
  if (st_.mode == Mode::kRead) request_kick_at(sim_.now() + cfg_.max_write_age);
  kick();
}

void Channel::maybe_switch_mode(Tick now) {
  if (st_.mode == Mode::kRead) {
    const bool dwell_done = now >= st_.read_dwell_until;
    const bool high = st_.wpq_pool.above_high();
    // Opportunistic drains only for stale writes: switching on momentary RPQ
    // emptiness thrashes the bus direction at low load.
    const bool idle_drain = st_.rpq.empty() && !st_.wpq.empty() &&
                            now - st_.wpq.front().arrival >= cfg_.max_write_age;
    if (high && !dwell_done && !idle_drain) {
      request_kick_at(st_.read_dwell_until);
      return;
    }
    if ((high && dwell_done) || idle_drain) {
      st_.mode = Mode::kWrite;
      st_.bus_free_at = std::max(st_.bus_free_at, now) + cfg_.timing.t_rtw;
      release_inactive_banks(st_.rpq);
      if (auto* tr = sim_.tracer()) {
        tr->instant("write-drain", "mc", now, sim::Tracer::kTrackChannel + index_);
        tr->counter("wpq-occupancy", now, static_cast<double>(st_.wpq.size()));
      }
    }
  } else {
    const bool drained = !st_.rpq.empty() && st_.wpq_pool.at_or_below_low();
    if (drained) {
      st_.mode = Mode::kRead;
      st_.read_dwell_until =
          now + std::min(cfg_.read_dwell_cap,
                         static_cast<Tick>(st_.rpq.size()) * cfg_.dwell_per_queued_read);
      st_.bus_free_at = std::max(st_.bus_free_at, now) + cfg_.timing.t_wtr;
      ++st_.counters.switch_cycles;
      release_inactive_banks(st_.wpq);
    }
  }
}

void Channel::release_inactive_banks(SlotQueue& q) {
  // Entries of the now-inactive queue give up their bank reservations so the
  // active mode can use the banks; they re-prepare on their next turn (row
  // state persists, so an undisturbed row is still a hit). Without this a
  // prepped-but-unissued entry could block the other mode indefinitely.
  // Walking the prepped sublist visits exactly the entries the full-queue
  // scan used to touch, in the same (age) order.
  auto i = q.prepped_head();
  while (i != SlotQueue::kNil) {
    const auto next = q.prepped_next(i);
    const Entry& e = q.entry(i);
    set_owned(e.coord.bank, false);
    q.unprep(i);
    i = next;
  }
}

void Channel::prep_banks(Tick now) {
  auto& q = active_queue();
  // A prep needs an unprepped in-window entry whose bank is free, and each
  // such bank is prepped once, by the oldest entry waiting on it: the head
  // of its waiting list (the prep claims the bank). A prep's outcome
  // depends only on its own bank's state, so the order in which the free
  // banks are prepped changes no row result or ready time, and
  // mark_prepped() keeps the prepped list in age order.
  const std::vector<std::uint64_t>& waiting = q.waiting_banks();
  for (std::size_t w = 0; w < waiting.size(); ++w) {
    for (std::uint64_t free = waiting[w] & ~st_.banks_owned[w]; free != 0; free &= free - 1) {
      const auto bank = static_cast<std::uint32_t>(w * 64 + std::countr_zero(free));
      const auto i = q.waiting_head(bank);
      Entry& e = q.entry(i);
      e.row_result = st_.banks[bank].prepare(now, e.coord.row, cfg_.timing);
      e.row_ready_at = st_.banks[bank].ready_at();
      q.mark_prepped(i);
      set_owned(bank, true);
    }
  }
#if HOSTNET_CHECKED
  // Post-condition, checked without the bank sets: walk the whole prep
  // window, as the full-queue scan did, and find no unprepped entry that
  // waits on a free bank.
  std::uint32_t pos = 0;
  for (auto i = q.fifo_head(); i != SlotQueue::kNil && pos < cfg_.prep_window;
       i = q.fifo_next(i), ++pos) {
    const Entry& e = q.entry(i);
    HOSTNET_INVARIANT(e.prepped || owned(e.coord.bank),
                      "mc.prep-skip: after a prep scan, entry id %llu at window position %u "
                      "still waits on free bank %u",
                      static_cast<unsigned long long>(e.id), pos, e.coord.bank);
  }
#endif
}

bool Channel::try_issue(Tick now, Tick& write_done) {
  assert(st_.bus_free_at <= now);
  auto& q = active_queue();
  // FR-FCFS: the oldest row-ready request wins the data bus. The prepped
  // sublist is age-ordered and only prepped entries can match, so walking
  // it finds the same entry the full FIFO scan used to.
  auto it = SlotQueue::kNil;
  for (auto i = q.prepped_head(); i != SlotQueue::kNil; i = q.prepped_next(i)) {
    if (q.entry(i).row_ready_at <= now) {
      it = i;
      break;
    }
  }
  if (it == SlotQueue::kNil) return false;

  // Copy out what the issue needs before the slot is released, not the
  // whole entry.
  const Entry& issued = q.entry(it);
  const mem::Request req = issued.req;
  const std::uint32_t bank = issued.coord.bank;
  const dram::RowResult row_result = issued.row_result;
  q.erase(it);
  set_owned(bank, false);
  // Row-buffer outcomes are accounted per issued line (formula inputs are
  // per-cacheline), using the outcome of the prep that made this issue ready.
  st_.counters.on_row_result(req.op, row_result == dram::RowResult::kHit,
                             row_result == dram::RowResult::kMissConflict);
  st_.banks[bank].column_access(now, req.op == mem::Op::kWrite, cfg_.timing);
  st_.bus_free_at = now + cfg_.timing.t_trans;

  if (req.op == mem::Op::kRead) {
    st_.counters.on_read_issued(bank);
    st_.rpq_pool.release(now);
    const Tick done = now + cfg_.timing.t_cas + cfg_.timing.t_trans;
    auto completion = [this, req, done] { listener_->on_read_data(req, done); };
    sim_.schedule_at(done, completion);
    listener_->on_rpq_slot_freed(index_, now);
  } else {
    ++st_.counters.lines_written;
    st_.wpq_pool.release(now);
    const Tick done = now + cfg_.timing.t_trans;
    // The completion also runs the wake-up fused onto it (request_kick_at):
    // the calendar would have fired that wake-up directly behind it.
    auto completion = [this, done] {
      listener_->on_wpq_slot_freed(index_, done);
      if (st_.fused_kick_at == done) {
        st_.fused_kick_at = kNever;
        on_kick_event(done);
      }
    };
    sim_.schedule_at(done, completion);
    write_done = done;
  }
  return true;
}

void Channel::schedule_next(Tick now, Tick write_done) {
  auto& q = active_queue();
  if (q.empty()) {
    // Nothing to do in the active mode; a pending inactive-mode switch is
    // driven by enqueue kicks or the stale-write timer.
    if (st_.mode == Mode::kRead && !st_.wpq.empty())
      request_kick_at(std::max(now + 1, st_.wpq.front().arrival + cfg_.max_write_age));
    return;
  }
  if (q.prepped_count() == 0) return;  // waiting on a bank owned by the inactive queue
  const Tick earliest_ready = q.earliest_ready();
  request_kick_at(std::max({now + 1, st_.bus_free_at, earliest_ready}), write_done);
}

void Channel::request_kick_at(Tick at, Tick write_done) {
  if (at >= st_.next_kick_at) return;
  st_.next_kick_at = at;
  // A wake-up already in flight for this exact tick will run the kick (the
  // earliest-scheduled event at a tick fires first, same as before); do not
  // enqueue a duplicate that could only die as a dead calendar entry.
  for (const Tick t : st_.kick_inflight)
    if (t == at) {
      ++st_.kick_stats.deduped;
      return;
    }
  st_.kick_inflight.push_back(at);
  ++st_.kick_stats.scheduled;
  // `write_done` is the tick of the write completion this kick() scheduled
  // last; kick() schedules nothing after it before asking here. A wake-up
  // for that tick would fire directly behind the completion, so the
  // completion runs it instead of a calendar event of its own.
  if (at == write_done && st_.fused_kick_at == kNever) {
    st_.fused_kick_at = at;
    ++st_.kick_stats.fused;
    return;
  }
  sim_.schedule_at(at, [this, at] { on_kick_event(at); });
}

void Channel::on_kick_event(Tick at) {
  for (auto& t : st_.kick_inflight)
    if (t == at) {
      t = st_.kick_inflight.back();
      st_.kick_inflight.pop_back();
      break;
    }
  if (st_.next_kick_at != at) {
    ++st_.kick_stats.cancelled;  // superseded by an earlier kick
    return;
  }
  st_.next_kick_at = kNever;
  kick();
}

void Channel::verify_invariants() const {
#if HOSTNET_CHECKED
  st_.rpq.verify_arena("mc.rpq");
  st_.wpq.verify_arena("mc.wpq");
  // Request conservation through the channel: every enqueued entry was
  // either issued to DRAM or still occupies an arena slot, and the pools'
  // credit counts track the arenas exactly.
  st_.rpq_pool.verify();
  st_.wpq_pool.verify();
  HOSTNET_INVARIANT(st_.rpq_pool.in_use() == st_.rpq.size(),
                    "mc.rpq: pool holds %u credits but the arena holds %zu entries",
                    st_.rpq_pool.in_use(), st_.rpq.size());
  HOSTNET_INVARIANT(st_.wpq_pool.in_use() == st_.wpq.size(),
                    "mc.wpq: pool holds %u credits but the arena holds %zu entries",
                    st_.wpq_pool.in_use(), st_.wpq.size());
  // Bank-ownership bijection: the prepped entries of both queues target
  // distinct banks, and those banks are exactly the owned set.
  const SlotQueue* queues[] = {&st_.rpq, &st_.wpq};
  std::vector<std::uint64_t> prepped_banks(st_.banks_owned.size(), 0);
  for (const SlotQueue* q : queues) {
    for (auto i = q->prepped_head(); i != SlotQueue::kNil; i = q->prepped_next(i)) {
      const Entry& e = q->entry(i);
      HOSTNET_INVARIANT(e.coord.bank < st_.banks.size() && owned(e.coord.bank),
                        "mc.bank-ownership: prepped entry id %llu targets bank %u, which is "
                        "not owned",
                        static_cast<unsigned long long>(e.id), e.coord.bank);
      std::uint64_t& word = prepped_banks[e.coord.bank / 64];
      const std::uint64_t bit = std::uint64_t{1} << (e.coord.bank % 64);
      HOSTNET_INVARIANT((word & bit) == 0,
                        "mc.bank-ownership: prepped entry id %llu shares bank %u with "
                        "another prepped entry",
                        static_cast<unsigned long long>(e.id), e.coord.bank);
      word |= bit;
    }
  }
  HOSTNET_INVARIANT(prepped_banks == st_.banks_owned,
                    "mc.bank-ownership: an owned bank has no prepped entry");
  // The fused wake-up is a wake-up in flight like any other: none, or held
  // exactly once in kick_inflight.
  if (st_.fused_kick_at != kNever) {
    const auto held = std::count(st_.kick_inflight.begin(), st_.kick_inflight.end(),
                                 st_.fused_kick_at);
    HOSTNET_INVARIANT(held == 1,
                      "mc.fused-kick: fused wake-up at tick %lld is held %lld times in "
                      "kick_inflight",
                      static_cast<long long>(st_.fused_kick_at), static_cast<long long>(held));
  }
#endif
}

void Channel::kick() {
  // Each step acts only where it can: a prep only on the free banks that
  // entries wait on, an issue only when the data bus is free. A kick that
  // finds neither costs the mode check, one masked word per 64 banks and
  // the wake-up request.
  const Tick now = sim_.now();
  maybe_switch_mode(now);
  prep_banks(now);
  Tick write_done = kNever;
  if (st_.bus_free_at <= now && try_issue(now, write_done)) {
    // The bus is busy until st_.bus_free_at; prepare more banks meanwhile.
    maybe_switch_mode(now);
    prep_banks(now);
  }
  schedule_next(now, write_done);
}

}  // namespace hostnet::mc
