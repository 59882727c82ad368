// Property tests for the memory-controller channel under randomized
// workloads: conservation, timing legality, and throughput bounds.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dram/address_map.hpp"
#include "mc/channel.hpp"
#include "sim/simulator.hpp"

namespace hostnet::mc {
namespace {

struct CountingListener : ChannelListener {
  std::uint64_t reads_done = 0;
  std::uint64_t writes_done = 0;
  Tick last_read_at = 0;
  std::vector<Tick> read_times;

  void on_read_data(const mem::Request&, Tick now) override {
    ++reads_done;
    last_read_at = now;
    read_times.push_back(now);
  }
  void on_wpq_slot_freed(std::uint32_t, Tick) override { ++writes_done; }
  void on_rpq_slot_freed(std::uint32_t, Tick) override {}
};

struct Params {
  std::uint64_t seed;
  double write_fraction;
  bool random_addresses;
  std::uint8_t unused[7] = {};  ///< fills bytes 17-23, which would be padding
};
// gtest names each instance after its parameter's bytes, so none may be
// padding (indeterminate): the fields fill all 24, and the zeroed tail keeps
// bytes 0-16 of every name as they were.
static_assert(sizeof(Params) == 8 + 8 + 1 + 7);

class McRandomWorkload : public ::testing::TestWithParam<Params> {};

TEST_P(McRandomWorkload, ConservationAndBounds) {
  const Params prm = GetParam();
  sim::Simulator sim;
  CountingListener listener;
  ChannelConfig cfg;
  cfg.timing = dram::ddr4_2933();
  Channel ch(sim, cfg, 32, 0, &listener);
  dram::AddressMap map(1, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  Rng rng(prm.seed);

  // Closed-loop injector: keep a bounded number of requests in flight,
  // injecting whenever queues have room.
  std::uint64_t reads_sent = 0, writes_sent = 0;
  std::uint64_t next_line = 0;
  const std::uint64_t target = 3000;
  while (reads_sent + writes_sent < target) {
    const bool is_write = rng.chance(prm.write_fraction);
    const std::uint64_t line =
        prm.random_addresses ? rng.below(1 << 20) : next_line++;
    const std::uint64_t addr = line * kCachelineBytes;
    mem::Request req;
    req.addr = addr;
    req.op = is_write ? mem::Op::kWrite : mem::Op::kRead;
    if (is_write) {
      if (!ch.wpq_has_space()) {
        sim.run_until(sim.now() + ns(50));
        continue;
      }
      ch.enqueue_write(req, map.decode(addr));
      ++writes_sent;
    } else {
      if (!ch.rpq_has_space()) {
        sim.run_until(sim.now() + ns(50));
        continue;
      }
      ch.enqueue_read(req, map.decode(addr));
      ++reads_sent;
    }
    if ((reads_sent + writes_sent) % 8 == 0) sim.run_until(sim.now() + ns(20));
  }
  sim.run_until(sim.now() + ms(1));  // drain

  // Conservation: everything injected completes, exactly once.
  EXPECT_EQ(listener.reads_done, reads_sent);
  EXPECT_EQ(listener.writes_done, writes_sent);
  EXPECT_EQ(ch.rpq_size(), 0u);
  EXPECT_EQ(ch.wpq_size(), 0u);
  EXPECT_EQ(ch.counters().lines_read, reads_sent);
  EXPECT_EQ(ch.counters().lines_written, writes_sent);

  if (reads_sent > 0) {
    // Throughput bound: the bus moves at most one line per tTrans, so the
    // last read cannot complete before all lines' transfer time elapsed.
    const double busy_ns = to_ns(listener.last_read_at);
    const double min_ns =
        static_cast<double>(reads_sent + writes_sent) * to_ns(cfg.timing.t_trans);
    EXPECT_GE(busy_ns, min_ns * 0.9);

    // Reads return strictly after tRCD+tCAS+tTrans from simulation start.
    EXPECT_GE(listener.read_times.front(), cfg.timing.t_cas + cfg.timing.t_trans);
  }

  // Row outcome accounting is complete: hits + activates == issued reads
  // (each issued line has exactly one recorded outcome).
  const auto& c = ch.counters();
  EXPECT_EQ(c.row_hit_read + c.act_read, reads_sent);
  EXPECT_EQ(c.row_hit_write + c.act_write, writes_sent);
  EXPECT_LE(c.pre_conflict_read, c.act_read);
  EXPECT_LE(c.pre_conflict_write, c.act_write);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, McRandomWorkload,
    ::testing::Values(Params{1, 0.0, false}, Params{2, 0.0, true},
                      Params{3, 0.3, false}, Params{4, 0.3, true},
                      Params{5, 0.7, true}, Params{6, 1.0, false},
                      Params{7, 1.0, true}, Params{8, 0.5, true}));

TEST(McChannelProperty, SequentialReadsMostlyRowHits) {
  sim::Simulator sim;
  CountingListener listener;
  ChannelConfig cfg;
  Channel ch(sim, cfg, 32, 0, &listener);
  dram::AddressMap map(1, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  std::uint64_t sent = 0;
  std::uint64_t line = 0;
  while (sent < 4000) {
    if (ch.rpq_has_space()) {
      mem::Request req;
      req.addr = line * kCachelineBytes;
      ch.enqueue_read(req, map.decode(req.addr));
      ++line;
      ++sent;
    } else {
      sim.run_until(sim.now() + ns(30));
    }
  }
  sim.run_until(sim.now() + ms(1));
  EXPECT_LT(ch.counters().row_miss_ratio_read(), 0.02);
}

TEST(McChannelProperty, RandomReadsMostlyRowMisses) {
  sim::Simulator sim;
  CountingListener listener;
  ChannelConfig cfg;
  Channel ch(sim, cfg, 32, 0, &listener);
  dram::AddressMap map(1, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  Rng rng(11);
  std::uint64_t sent = 0;
  while (sent < 4000) {
    if (ch.rpq_has_space()) {
      mem::Request req;
      req.addr = rng.below(1 << 22) * kCachelineBytes;
      ch.enqueue_read(req, map.decode(req.addr));
      ++sent;
    } else {
      sim.run_until(sim.now() + ns(30));
    }
  }
  sim.run_until(sim.now() + ms(2));
  EXPECT_GT(ch.counters().row_miss_ratio_read(), 0.5);
}

}  // namespace
}  // namespace hostnet::mc
