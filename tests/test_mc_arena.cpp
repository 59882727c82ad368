// Property tests for the slot-arena MC scheduler (DESIGN.md section 4b).
//
// The slot-arena rewrite claims *bit-identical* scheduling vs the seed's
// deque-based channel. That claim is enforced here three ways:
//  * SlotQueueProperty -- the arena container itself against a std::deque
//    reference model over randomized push/erase/prep/unprep streams;
//  * McArenaDifferential -- the full Channel against RefChannel, a faithful
//    copy of the seed's deque implementation, on identical randomized
//    closed-loop workloads: every completion tick, every counter must match
//    exactly (FR-FCFS "oldest row-ready wins", same-tick FIFO by entry id);
//    The reference files every wake-up as its own calendar event, so the
//    streams with writes also check the wake-ups fused onto write
//    completions;
//  * McKickStats -- the self-kick dedup keeps dead calendar entries (wake-ups
//    superseded before firing) a bounded fraction of scheduled wake-ups under
//    bursty enqueues.
// Plus LatencyStation window tests: Little's-law latency must agree with the
// directly measured mean across reset() windows (the paper's PMU methodology,
// section 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "counters/station.hpp"
#include "dram/address_map.hpp"
#include "mc/channel.hpp"
#include "mc/slot_queue.hpp"
#include "sim/simulator.hpp"

namespace hostnet::mc {
namespace {

// ---- SlotQueue vs std::deque reference -------------------------------------

struct RefSlot {
  std::uint64_t id;
  bool prepped;
  Tick ready;
};

TEST(SlotQueueProperty, MatchesDequeReference) {
  Rng rng(0xA11E7);
  constexpr std::uint32_t kCap = 24;
  constexpr std::uint32_t kWindow = 8;  // < capacity, so the fence does work
  constexpr std::uint32_t kBanks = 70;  // the waiting-bank set spans two words
  SlotQueue q(kCap, kWindow, kBanks);
  std::deque<RefSlot> ref;                       // FIFO (age) order
  std::vector<SlotQueue::SlotIndex> slot_of;     // id -> slot index
  std::uint64_t next_id = 0;

  auto check = [&] {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.full(), ref.size() == kCap);
    // FIFO walk visits exactly the live entries, oldest first, and window
    // membership is positional. Collect each bank's unprepped in-window
    // entries on the way, in age order.
    std::size_t pos = 0;
    std::vector<std::uint64_t> waiting_banks((kBanks + 63) / 64, 0);
    std::vector<std::vector<std::uint64_t>> waiting(kBanks);
    for (auto i = q.fifo_head(); i != SlotQueue::kNil; i = q.fifo_next(i), ++pos) {
      ASSERT_LT(pos, ref.size());
      ASSERT_EQ(q.in_window(i), pos < kWindow);
      if (pos < kWindow && !ref[pos].prepped) {
        const std::uint32_t b = q.entry(i).coord.bank;
        waiting_banks[b / 64] |= std::uint64_t{1} << (b % 64);
        waiting[b].push_back(ref[pos].id);
      }
      ASSERT_EQ(q.entry(i).id, ref[pos].id);
      ASSERT_EQ(q.entry(i).prepped, ref[pos].prepped);
    }
    ASSERT_EQ(pos, ref.size());
    // Each bank's waiting list holds exactly that bank's unprepped in-window
    // entries, oldest first (so its head is the oldest of them), and the
    // waiting-bank set holds exactly the banks with a non-empty list.
    for (std::uint32_t b = 0; b < kBanks; ++b) {
      std::vector<std::uint64_t> listed;
      for (auto wi = q.waiting_head(b); wi != SlotQueue::kNil; wi = q.waiting_next(wi)) {
        ASSERT_LT(listed.size(), kCap) << "waiting list of bank " << b << " cycles";
        listed.push_back(q.entry(wi).id);
      }
      ASSERT_EQ(listed, waiting[b]) << "waiting list of bank " << b;
    }
    ASSERT_EQ(q.waiting_banks(), waiting_banks);
    // Prepped walk visits exactly the prepped entries, in the same age order,
    // and the incremental earliest-ready tracker matches a full scan.
    Tick min_ready = SlotQueue::kNoReady;
    std::uint32_t prepped = 0;
    auto pi = q.prepped_head();
    for (const RefSlot& r : ref) {
      if (!r.prepped) continue;
      ASSERT_NE(pi, SlotQueue::kNil);
      ASSERT_EQ(q.entry(pi).id, r.id);
      ASSERT_EQ(q.entry(pi).row_ready_at, r.ready);
      min_ready = std::min(min_ready, r.ready);
      ++prepped;
      pi = q.prepped_next(pi);
    }
    ASSERT_EQ(pi, SlotQueue::kNil);
    ASSERT_EQ(q.prepped_count(), prepped);
    ASSERT_EQ(q.unprepped_count(), ref.size() - prepped);
    ASSERT_EQ(q.earliest_ready(), min_ready);
    if (!ref.empty()) {
      ASSERT_EQ(q.front().id, ref.front().id);
    }
  };

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t action = rng.below(4);
    if (action == 0 && !q.full()) {
      const std::uint64_t id = next_id++;
      dram::Coord coord;
      // Half the entries crowd four banks, so waiting lists grow several
      // entries long; the rest spread over both words of the bank set.
      coord.bank = static_cast<std::uint32_t>(rng.chance(0.5) ? rng.below(4) : rng.below(kBanks));
      const auto idx = q.push_back(mem::Request{}, coord, Tick(step), id);
      slot_of.resize(id + 1);
      slot_of[id] = idx;
      ref.push_back(RefSlot{id, false, 0});
    } else if (action == 1 && !ref.empty()) {
      const std::size_t pos = rng.below(ref.size());
      q.erase(slot_of[ref[pos].id]);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pos));
    } else if (action == 2 && !ref.empty()) {
      // Prep a random unprepped entry inside the window (prep never reaches
      // beyond the first kWindow positions -- mimics a bank activation).
      const std::size_t limit = std::min<std::size_t>(ref.size(), kWindow);
      const std::size_t start = rng.below(limit);
      for (std::size_t k = 0; k < limit; ++k) {
        RefSlot& r = ref[(start + k) % limit];
        if (r.prepped) continue;
        r.prepped = true;
        r.ready = Tick(rng.below(1000));
        const auto idx = slot_of[r.id];
        q.entry(idx).row_ready_at = r.ready;
        q.mark_prepped(idx);
        break;
      }
    } else if (action == 3 && !ref.empty()) {
      // Unprep a random prepped entry (mimics a mode-switch release).
      const std::size_t start = rng.below(ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        RefSlot& r = ref[(start + k) % ref.size()];
        if (!r.prepped) continue;
        r.prepped = false;
        q.unprep(slot_of[r.id]);
        break;
      }
    }
    if (step % 7 == 0) check();
  }
  check();
}

// ---- RefChannel: the seed's deque-based scheduler, kept verbatim -----------
// This is the pre-arena Channel implementation (minus tracing), preserved as
// the executable specification of FR-FCFS-lite: full-queue scans over
// std::deque, lazy next_kick_at_ superseding, no slot reuse. Any divergence
// between it and mc::Channel on the same input stream is a scheduling bug.

class RefChannel {
 public:
  RefChannel(sim::Simulator& sim, const ChannelConfig& cfg, std::uint32_t banks,
             std::uint32_t index, ChannelListener* listener)
      : sim_(sim),
        cfg_(cfg),
        index_(index),
        listener_(listener),
        banks_(banks),
        bank_pending_(banks, -1),
        counters_(banks) {}

  bool rpq_has_space() const { return rpq_.size() < cfg_.rpq_capacity; }
  bool wpq_has_space() const { return wpq_.size() < cfg_.wpq_capacity; }
  std::size_t rpq_size() const { return rpq_.size(); }
  std::size_t wpq_size() const { return wpq_.size(); }
  const counters::McChannelCounters& counters() const { return counters_; }

  void enqueue_read(const mem::Request& req, const dram::Coord& coord) {
    rpq_.push_back(RefEntry{req, coord, sim_.now(), next_entry_id_++, false, 0,
                            dram::RowResult::kHit});
    kick();
  }

  void enqueue_write(const mem::Request& req, const dram::Coord& coord) {
    wpq_.push_back(RefEntry{req, coord, sim_.now(), next_entry_id_++, false, 0,
                            dram::RowResult::kHit});
    if (mode_ == Mode::kRead) request_kick_at(sim_.now() + cfg_.max_write_age);
    kick();
  }

 private:
  enum class Mode : std::uint8_t { kRead, kWrite };

  struct RefEntry {
    mem::Request req;
    dram::Coord coord;
    Tick arrival;
    std::uint64_t id;
    bool prepped;
    Tick row_ready_at;
    dram::RowResult row_result;
  };

  std::deque<RefEntry>& active_queue() { return mode_ == Mode::kRead ? rpq_ : wpq_; }

  void maybe_switch_mode(Tick now) {
    if (mode_ == Mode::kRead) {
      const bool dwell_done = now >= read_dwell_until_;
      const bool high = wpq_.size() >= cfg_.wpq_high_wm;
      const bool idle_drain = rpq_.empty() && !wpq_.empty() &&
                              now - wpq_.front().arrival >= cfg_.max_write_age;
      if (high && !dwell_done && !idle_drain) {
        request_kick_at(read_dwell_until_);
        return;
      }
      if ((high && dwell_done) || idle_drain) {
        mode_ = Mode::kWrite;
        bus_free_at_ = std::max(bus_free_at_, now) + cfg_.timing.t_rtw;
        release_inactive_banks(rpq_);
      }
    } else {
      const bool drained = !rpq_.empty() && wpq_.size() <= cfg_.wpq_low_wm;
      if (drained) {
        mode_ = Mode::kRead;
        read_dwell_until_ =
            now + std::min(cfg_.read_dwell_cap,
                           static_cast<Tick>(rpq_.size()) * cfg_.dwell_per_queued_read);
        bus_free_at_ = std::max(bus_free_at_, now) + cfg_.timing.t_wtr;
        ++counters_.switch_cycles;
        release_inactive_banks(wpq_);
      }
    }
  }

  void release_inactive_banks(std::deque<RefEntry>& q) {
    for (auto& e : q) {
      if (!e.prepped) continue;
      if (bank_pending_[e.coord.bank] == static_cast<std::int64_t>(e.id))
        bank_pending_[e.coord.bank] = -1;
      e.prepped = false;
    }
  }

  void prep_banks(Tick now) {
    auto& q = active_queue();
    std::uint32_t scanned = 0;
    for (auto& e : q) {
      if (++scanned > cfg_.prep_window) break;
      if (e.prepped) continue;
      if (bank_pending_[e.coord.bank] != -1) continue;
      e.row_result = banks_[e.coord.bank].prepare(now, e.coord.row, cfg_.timing);
      e.prepped = true;
      e.row_ready_at = banks_[e.coord.bank].ready_at();
      bank_pending_[e.coord.bank] = static_cast<std::int64_t>(e.id);
    }
  }

  bool try_issue(Tick now) {
    if (bus_free_at_ > now) return false;
    auto& q = active_queue();
    auto it = q.end();
    for (auto i = q.begin(); i != q.end(); ++i) {
      if (i->prepped && i->row_ready_at <= now) {
        it = i;
        break;  // oldest row-ready request wins the data bus
      }
    }
    if (it == q.end()) return false;

    const RefEntry e = *it;
    q.erase(it);
    bank_pending_[e.coord.bank] = -1;
    counters_.on_row_result(e.req.op, e.row_result == dram::RowResult::kHit,
                            e.row_result == dram::RowResult::kMissConflict);
    banks_[e.coord.bank].column_access(now, e.req.op == mem::Op::kWrite, cfg_.timing);
    bus_free_at_ = now + cfg_.timing.t_trans;

    if (e.req.op == mem::Op::kRead) {
      counters_.on_read_issued(e.coord.bank);
      const Tick done = now + cfg_.timing.t_cas + cfg_.timing.t_trans;
      const mem::Request req = e.req;
      sim_.schedule_at(done, [this, req, done] { listener_->on_read_data(req, done); });
      listener_->on_rpq_slot_freed(index_, now);
    } else {
      ++counters_.lines_written;
      const Tick done = now + cfg_.timing.t_trans;
      sim_.schedule_at(done, [this, done] { listener_->on_wpq_slot_freed(index_, done); });
    }
    return true;
  }

  void schedule_next(Tick now) {
    const auto& q = active_queue();
    if (q.empty()) {
      if (mode_ == Mode::kRead && !wpq_.empty())
        request_kick_at(std::max(now + 1, wpq_.front().arrival + cfg_.max_write_age));
      return;
    }
    Tick earliest_ready = std::numeric_limits<Tick>::max();
    bool any_prepped = false;
    std::uint32_t scanned = 0;
    for (const auto& e : q) {
      if (++scanned > cfg_.prep_window) break;
      if (e.prepped) {
        any_prepped = true;
        earliest_ready = std::min(earliest_ready, e.row_ready_at);
      }
    }
    if (!any_prepped) return;
    request_kick_at(std::max({now + 1, bus_free_at_, earliest_ready}));
  }

  void request_kick_at(Tick at) {
    if (at >= next_kick_at_) return;
    next_kick_at_ = at;
    sim_.schedule_at(at, [this, at] {
      if (next_kick_at_ != at) return;  // superseded by an earlier kick
      next_kick_at_ = std::numeric_limits<Tick>::max();
      kick();
    });
  }

  void kick() {
    const Tick now = sim_.now();
    maybe_switch_mode(now);
    prep_banks(now);
    if (try_issue(now)) {
      maybe_switch_mode(now);
      prep_banks(now);
    }
    schedule_next(now);
  }

  sim::Simulator& sim_;
  ChannelConfig cfg_;
  std::uint32_t index_;
  ChannelListener* listener_;
  std::deque<RefEntry> rpq_;
  std::deque<RefEntry> wpq_;
  std::vector<dram::Bank> banks_;
  std::vector<std::int64_t> bank_pending_;
  Mode mode_ = Mode::kRead;
  Tick bus_free_at_ = 0;
  Tick read_dwell_until_ = 0;
  std::uint64_t next_entry_id_ = 0;
  Tick next_kick_at_ = std::numeric_limits<Tick>::max();
  counters::McChannelCounters counters_;
};

// ---- differential harness ---------------------------------------------------

struct TraceListener : ChannelListener {
  // Full observable behaviour: every callback, with its payload and tick.
  std::vector<std::uint64_t> read_addrs;
  std::vector<Tick> read_times;
  std::vector<Tick> wpq_freed_times;
  std::vector<Tick> rpq_freed_times;

  void on_read_data(const mem::Request& req, Tick now) override {
    read_addrs.push_back(req.addr);
    read_times.push_back(now);
  }
  void on_wpq_slot_freed(std::uint32_t, Tick now) override {
    wpq_freed_times.push_back(now);
  }
  void on_rpq_slot_freed(std::uint32_t, Tick now) override {
    rpq_freed_times.push_back(now);
  }
};

struct StreamParams {
  std::uint64_t seed;
  double write_fraction;
  bool random_addresses;
  bool back_to_back_writes = false;  ///< no arrival gap after a write
  std::uint16_t banks = 32;  ///< banks per channel; > 64 spans several bank-set words
  std::uint16_t prep_window = 24;  ///< ChannelConfig's default
  std::uint16_t unused = 0;  ///< fills bytes 22-23, which would be padding
  std::uint64_t bank_bits;  ///< shrink the bank space to force conflicts
};
// gtest names each instance after its parameter's bytes, so none may be
// padding (indeterminate): the fields fill all 32. Those after
// random_addresses sit in what was padding and are zero by default, so the
// original streams keep their names.
static_assert(sizeof(StreamParams) == 8 + 8 + 1 + 1 + 2 + 2 + 2 + 8);

// Drive `ch` with the closed-loop randomized stream defined by `prm`. The
// injection decisions depend only on queue occupancy, which must evolve
// identically in both models if scheduling is bit-identical -- so a shared
// seed produces the same input stream, and any divergence shows up as a
// trace mismatch (or, earlier, as a different injection order).
template <typename ChannelT>
void run_stream(sim::Simulator& sim, ChannelT& ch, const StreamParams& prm) {
  dram::AddressMap map(1, prm.banks, 8192, 256, dram::BankHash::kXorHash, 8192);
  Rng rng(prm.seed);
  std::uint64_t sent = 0;
  std::uint64_t next_line = 0;
  const std::uint64_t line_space = 1ULL << prm.bank_bits;
  while (sent < 2500) {
    // A full stream takes well under a simulated millisecond; a channel that
    // stops issuing would otherwise spin here on a full queue forever.
    if (sim.now() > ms(20)) {
      ADD_FAILURE() << "stream stalled after " << sent << " requests";
      break;
    }
    const bool is_write = rng.chance(prm.write_fraction);
    const std::uint64_t line =
        prm.random_addresses ? rng.below(line_space) : next_line++;
    mem::Request req;
    req.addr = line * kCachelineBytes;
    req.op = is_write ? mem::Op::kWrite : mem::Op::kRead;
    if (is_write) {
      if (!ch.wpq_has_space()) {
        sim.run_until(sim.now() + ns(37));
        continue;
      }
      ch.enqueue_write(req, map.decode(req.addr));
    } else {
      if (!ch.rpq_has_space()) {
        sim.run_until(sim.now() + ns(37));
        continue;
      }
      ch.enqueue_read(req, map.decode(req.addr));
    }
    ++sent;
    if constexpr (std::is_same_v<ChannelT, Channel>) {
      if (sent % 64 == 0) ch.verify_invariants();  // checked builds only
    }
    // Bursty arrivals: occasional gaps, occasional back-to-back enqueues.
    if (!(is_write && prm.back_to_back_writes) && rng.chance(0.4)) sim.run_until(sim.now() + Tick(rng.below(ns(60))));
  }
  sim.run_until(sim.now() + ms(2));  // drain
}

class McArenaDifferential : public ::testing::TestWithParam<StreamParams> {};

TEST_P(McArenaDifferential, BitIdenticalToDequeReference) {
  const StreamParams prm = GetParam();
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  cfg.prep_window = prm.prep_window;

  sim::Simulator sim_new;
  TraceListener trace_new;
  Channel ch_new(sim_new, cfg, prm.banks, 0, &trace_new);
  run_stream(sim_new, ch_new, prm);
  ch_new.verify_invariants();

  sim::Simulator sim_ref;
  TraceListener trace_ref;
  RefChannel ch_ref(sim_ref, cfg, prm.banks, 0, &trace_ref);
  run_stream(sim_ref, ch_ref, prm);

  // Every observable callback matches: same payloads, same ticks, same order.
  EXPECT_EQ(trace_new.read_addrs, trace_ref.read_addrs);
  EXPECT_EQ(trace_new.read_times, trace_ref.read_times);
  EXPECT_EQ(trace_new.wpq_freed_times, trace_ref.wpq_freed_times);
  EXPECT_EQ(trace_new.rpq_freed_times, trace_ref.rpq_freed_times);
  EXPECT_EQ(ch_new.rpq_size(), ch_ref.rpq_size());
  EXPECT_EQ(ch_new.wpq_size(), ch_ref.wpq_size());

  // Counters (the formula inputs) match exactly too.
  const auto& cn = ch_new.counters();
  const auto& cr = ch_ref.counters();
  EXPECT_EQ(cn.lines_read, cr.lines_read);
  EXPECT_EQ(cn.lines_written, cr.lines_written);
  EXPECT_EQ(cn.switch_cycles, cr.switch_cycles);
  EXPECT_EQ(cn.act_read, cr.act_read);
  EXPECT_EQ(cn.act_write, cr.act_write);
  EXPECT_EQ(cn.pre_conflict_read, cr.pre_conflict_read);
  EXPECT_EQ(cn.pre_conflict_write, cr.pre_conflict_write);
  EXPECT_EQ(cn.row_hit_read, cr.row_hit_read);
  EXPECT_EQ(cn.row_hit_write, cr.row_hit_write);

  // Only write completions carry wake-ups, and every stream with writes
  // exercises them; a fused wake-up is still a scheduled one.
  const Channel::KickStats& ks = ch_new.kick_stats();
  if (prm.write_fraction > 0)
    EXPECT_GT(ks.fused, 0u);
  else
    EXPECT_EQ(ks.fused, 0u);
  EXPECT_LE(ks.fused, ks.scheduled);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, McArenaDifferential,
    ::testing::Values(
        // Sequential reads: row hits, deep RPQ, no mode switches.
        StreamParams{.seed = 11, .write_fraction = 0.0, .random_addresses = false, .bank_bits = 22},
        // Random reads over a big space: misses, bank parallelism.
        StreamParams{.seed = 12, .write_fraction = 0.0, .random_addresses = true, .bank_bits = 22},
        // Random reads over a tiny space: heavy bank conflicts, the FR-FCFS
        // reorder window and same-tick FIFO tie-breaks do real work here.
        StreamParams{.seed = 13, .write_fraction = 0.0, .random_addresses = true, .bank_bits = 9},
        // Mixed traffic: watermark drains, dwell, release_inactive_banks.
        StreamParams{.seed = 14, .write_fraction = 0.3, .random_addresses = true, .bank_bits = 20},
        StreamParams{.seed = 15, .write_fraction = 0.5, .random_addresses = true, .bank_bits = 10},
        StreamParams{.seed = 16, .write_fraction = 0.7, .random_addresses = false, .bank_bits = 22},
        // Write-only: stale-write timer and idle drains dominate.
        StreamParams{.seed = 17, .write_fraction = 1.0, .random_addresses = true, .bank_bits = 12},
        StreamParams{.seed = 18, .write_fraction = 1.0, .random_addresses = false, .bank_bits = 22},
        // 128 banks: the bank-candidate sets span two 64-bit words.
        StreamParams{.seed = 19, .write_fraction = 0.0, .random_addresses = true, .banks = 128,
                     .bank_bits = 22},
        StreamParams{.seed = 20, .write_fraction = 0.4, .random_addresses = true, .banks = 128,
                     .bank_bits = 14},
        // A prep window well inside the 48-entry RPQ (and the 24-entry WPQ):
        // entries slide into the window as older ones issue.
        StreamParams{.seed = 21, .write_fraction = 0.0, .random_addresses = true,
                     .prep_window = 6, .bank_bits = 9},
        StreamParams{.seed = 22, .write_fraction = 0.5, .random_addresses = true, .banks = 128,
                     .prep_window = 4, .bank_bits = 12},
        // Write-drain heavy: sequential writes arriving back to back (row
        // hits, so the next issue is ready when the bus frees) with a few
        // reads to drain back for. Most wake-ups land on the tick of a write
        // completion and ride it.
        StreamParams{.seed = 23, .write_fraction = 0.9, .random_addresses = false,
                     .back_to_back_writes = true, .bank_bits = 22},
        // 8 banks under the default 24-deep prep window: most window entries
        // wait on a bank another entry owns, so a bank prep must find the
        // few free banks without acting on their waiters.
        StreamParams{.seed = 24, .write_fraction = 0.3, .random_addresses = true, .banks = 8,
                     .bank_bits = 20}));

#if HOSTNET_CHECKED
TEST(McArenaDeathTest, StaleWaitingBankSetTripsAudit) {
  // Three reads to one bank: the oldest preps and owns it, the other two wait
  // unprepped in bank 70's waiting list. Retargeting a waiting entry to
  // another bank behind the queue's back (through a saved snapshot) leaves
  // it in the wrong bank's list, so bank 3 waits without being in the
  // waiting-bank set, and the checked audit must abort.
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  sim::Simulator sim;
  TraceListener trace;
  Channel ch(sim, cfg, 128, 0, &trace);
  for (std::uint64_t row = 0; row < 3; ++row) {
    mem::Request req;
    req.addr = row * kCachelineBytes;
    ch.enqueue_read(req, dram::Coord{0, 70, row, 0});
  }
  ch.verify_invariants();
  Channel::Snapshot snap;
  ch.save_state(snap);
  SlotQueue& rpq = snap.st_.rpq;
  ASSERT_NE(rpq.waiting_head(70), SlotQueue::kNil);
  rpq.entry(rpq.waiting_head(70)).coord.bank = 3;
  ch.load_state(snap);
  EXPECT_DEATH(ch.verify_invariants(), "waiting list of bank 70 holds entry id 1, which targets bank 3");
}

TEST(McArenaDeathTest, StrayOwnedBankTripsAudit) {
  // One read preps and owns bank 70. Marking bank 3 owned too (through a
  // saved snapshot) leaves an owned bank that no prepped entry targets.
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  sim::Simulator sim;
  TraceListener trace;
  Channel ch(sim, cfg, 128, 0, &trace);
  mem::Request req;
  ch.enqueue_read(req, dram::Coord{0, 70, 0, 0});
  ch.verify_invariants();
  Channel::Snapshot snap;
  ch.save_state(snap);
  snap.st_.banks_owned[0] |= std::uint64_t{1} << 3;
  ch.load_state(snap);
  EXPECT_DEATH(ch.verify_invariants(), "owned bank has no prepped entry");
}

TEST(McArenaDeathTest, StaleWaitingBankSetTripsSkippedScanAudit) {
  // As above, a waiting entry is retargeted to free bank 3 behind the
  // queue's back, so the waiting-bank set still says bank 70 (owned) only.
  // The next kick finds no free bank to prep; the checked build's
  // post-condition walk of the window must find the entry that still waits
  // on free bank 3.
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  sim::Simulator sim;
  TraceListener trace;
  Channel ch(sim, cfg, 128, 0, &trace);
  for (std::uint64_t row = 0; row < 3; ++row) {
    mem::Request req;
    req.addr = row * kCachelineBytes;
    ch.enqueue_read(req, dram::Coord{0, 70, row, 0});
  }
  Channel::Snapshot snap;
  ch.save_state(snap);
  snap.st_.rpq.entry(snap.st_.rpq.waiting_head(70)).coord.bank = 3;
  ch.load_state(snap);
  mem::Request req;
  req.addr = 3 * kCachelineBytes;
  EXPECT_DEATH(ch.enqueue_read(req, dram::Coord{0, 70, 3, 0}), "mc.prep-skip");
}

/// Run sequential writes through `ch` until a wake-up rides a pending write
/// completion at a quiesce point; false if none does within the budget.
bool run_until_fused_pending(sim::Simulator& sim, Channel& ch) {
  dram::AddressMap map(1, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  Channel::Snapshot snap;
  for (std::uint64_t line = 0; line < 4096; ++line) {
    mem::Request req;
    req.addr = line * kCachelineBytes;
    req.op = mem::Op::kWrite;
    while (!ch.wpq_has_space()) sim.run_until(sim.now() + ns(1));
    ch.enqueue_write(req, map.decode(req.addr));
    sim.run_until(sim.now() + ns(1));
    ch.save_state(snap);
    if (snap.st_.fused_kick_at != Channel::kNever) return true;
  }
  return false;
}

TEST(McArenaDeathTest, StaleFusedWakeUpTripsAudit) {
  // A wake-up rides a pending write completion. Dropping its tick from the
  // in-flight set (through a saved snapshot) leaves a fused wake-up that no
  // longer counts as in flight, and the checked audit must abort.
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  sim::Simulator sim;
  TraceListener trace;
  Channel ch(sim, cfg, 32, 0, &trace);
  ASSERT_TRUE(run_until_fused_pending(sim, ch));
  ch.verify_invariants();
  Channel::Snapshot snap;
  ch.save_state(snap);
  std::erase(snap.st_.kick_inflight, snap.st_.fused_kick_at);
  ch.load_state(snap);
  EXPECT_DEATH(ch.verify_invariants(), "mc.fused-kick");
}
#endif

// ---- dead calendar entries from superseded kicks ---------------------------

TEST(McKickStats, DeadEventsBoundedUnderBurstyEnqueues) {
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  sim::Simulator sim;
  TraceListener trace;
  Channel ch(sim, cfg, 32, 0, &trace);
  dram::AddressMap map(1, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  Rng rng(0xB0B);

  // Bursty mixed traffic with idle gaps: each burst re-arms the stale-write
  // timer and the bank-ready kick repeatedly, which is exactly the pattern
  // that used to pile dead entries into the calendar queue.
  for (int burst = 0; burst < 400; ++burst) {
    const std::uint64_t burst_len = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < burst_len; ++i) {
      mem::Request req;
      req.addr = rng.below(1 << 18) * kCachelineBytes;
      req.op = rng.chance(0.5) ? mem::Op::kWrite : mem::Op::kRead;
      if (req.op == mem::Op::kWrite) {
        if (!ch.wpq_has_space()) continue;
        ch.enqueue_write(req, map.decode(req.addr));
      } else {
        if (!ch.rpq_has_space()) continue;
        ch.enqueue_read(req, map.decode(req.addr));
      }
    }
    // Gaps long enough that stale-write deadlines pass between bursts.
    sim.run_until(sim.now() + Tick(rng.below(ns(600))));
  }
  sim.run_until(sim.now() + ms(2));  // drain

  const auto& ks = ch.kick_stats();
  ASSERT_GT(ks.scheduled, 0u);
  EXPECT_LE(ks.fused, ks.scheduled);
  // Dedup must actually engage under this pattern (same-tick re-requests are
  // the dominant source of what used to be dead entries)...
  EXPECT_GT(ks.deduped, 0u);
  // ...and what still dies (an in-flight wake-up superseded by an earlier
  // one) stays a small fraction of scheduled wake-ups.
  const double dead_ratio =
      static_cast<double>(ks.cancelled) / static_cast<double>(ks.scheduled);
  EXPECT_LT(dead_ratio, 0.2) << "cancelled=" << ks.cancelled
                             << " scheduled=" << ks.scheduled;
}

}  // namespace
}  // namespace hostnet::mc

// ---- LatencyStation: Little's law across reset() windows -------------------

namespace hostnet::counters {
namespace {

TEST(McArenaLittlesLaw, ExactWhenWindowsDrain)
{
  // Jobs that start and finish inside one window make Little's law exact:
  // avg occupancy x window = sum of latencies, so O/R-latency == mean.
  LatencyStation st;
  Rng rng(42);
  Tick now = 0;
  for (int window = 0; window < 4; ++window) {
    st.reset(now);
    // Overlapping batches: k jobs enter, then leave in FIFO order.
    std::uint64_t jobs = 0;
    for (int batch = 0; batch < 50; ++batch) {
      const std::uint64_t k = 1 + rng.below(6);
      std::vector<Tick> entered(k);
      for (std::uint64_t j = 0; j < k; ++j) {
        now += Tick(rng.below(ns(15)));
        entered[j] = now;
        st.enter(now);
      }
      for (std::uint64_t j = 0; j < k; ++j) {
        now += Tick(1 + rng.below(ns(40)));
        st.leave(now, entered[j]);
        ++jobs;
      }
    }
    ASSERT_EQ(st.completions(), jobs);
    ASSERT_EQ(st.occupancy(), 0);
    const double littles = st.littles_latency_ns(now);
    const double mean = st.mean_latency_ns();
    EXPECT_NEAR(littles, mean, mean * 1e-9) << "window " << window;
  }
}

TEST(McArenaLittlesLaw, AgreesUnderStationaryLoadAcrossWindows) {
  // Stationary periodic load where jobs straddle reset() boundaries: the
  // occupancy level persists across reset (only the window accounting
  // restarts), so Little's law converges to the true mean in every window.
  LatencyStation st;
  const Tick period = ns(10);
  const Tick latency = ns(50);  // 5 jobs in flight at steady state
  std::deque<Tick> in_flight;
  Tick now = 0;
  // Warm up into steady state before the first measured window.
  for (int k = 0; k < 5; ++k) {
    st.enter(now + Tick(k) * period);
    in_flight.push_back(now + Tick(k) * period);
  }
  now += Tick(4) * period;
  for (int window = 0; window < 3; ++window) {
    st.reset(now);
    for (int k = 0; k < 2000; ++k) {
      now += period;
      st.enter(now);
      in_flight.push_back(now);
      const Tick entered = in_flight.front();
      in_flight.pop_front();
      st.leave(entered + latency, entered);
    }
    const double littles = st.littles_latency_ns(now);
    const double mean = st.mean_latency_ns();
    EXPECT_NEAR(mean, to_ns(latency), 1e-9);
    EXPECT_NEAR(littles, mean, mean * 0.02) << "window " << window;
    EXPECT_EQ(st.completions(), 2000u);
  }
}

}  // namespace
}  // namespace hostnet::counters
