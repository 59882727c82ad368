// Unit tests for the core (LFB) and IIO/device models, run against a real
// CHA+MC stack (small, single-purpose scenarios).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cha/cha.hpp"
#include "common/rng.hpp"
#include "cpu/core.hpp"
#include "iio/iio.hpp"
#include "iio/storage_device.hpp"
#include "mc/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace hostnet {
namespace {

struct Stack {
  sim::Simulator sim;
  dram::AddressMap map{2, 32, 8192, 256, dram::BankHash::kXorHash, 8192};
  mc::MemoryController mc;
  cha::Cha cha;
  iio::Iio iio;

  Stack() : mc(sim, mc::ChannelConfig{}, map, nullptr), cha(sim, {}, mc), iio(sim, cha, {}) {
    mc.set_listener(&cha);
  }
};

TEST(Core, LfbOccupancyNeverExceedsCapacity) {
  Stack s;
  cpu::CoreConfig cfg;
  cfg.lfb_entries = 10;
  cpu::CoreWorkload wl;
  wl.pattern = cpu::CoreWorkload::Pattern::kSequential;
  cpu::Core core(s.sim, s.cha, cfg, wl, 0, 1);
  core.start();
  s.sim.run_until(us(50));
  EXPECT_EQ(core.lfb_station().max_occupancy(), 10);
  EXPECT_GT(core.lines_read(), 1000u);
}

TEST(Core, PrefetchExtraAppliesOnlyToSequential) {
  Stack s;
  cpu::CoreConfig cfg;
  cfg.lfb_entries = 10;
  cfg.prefetch_extra = 6;
  cpu::CoreWorkload seq;
  cpu::Core a(s.sim, s.cha, cfg, seq, 0, 1);
  cpu::CoreWorkload rnd;
  rnd.pattern = cpu::CoreWorkload::Pattern::kRandom;
  rnd.region.base = 4ull << 30;
  cpu::Core b(s.sim, s.cha, cfg, rnd, 1, 2);
  a.start();
  b.start();
  s.sim.run_until(us(50));
  EXPECT_EQ(a.lfb_station().max_occupancy(), 16);
  EXPECT_EQ(b.lfb_station().max_occupancy(), 10);
}

TEST(Core, StoreWorkloadWritesBackEveryLine) {
  Stack s;
  cpu::CoreWorkload wl;
  wl.write_fraction = 1.0;
  cpu::Core core(s.sim, s.cha, {}, wl, 0, 1);
  core.start();
  s.sim.run_until(us(50));
  EXPECT_GT(core.lines_read(), 500u);
  // Every RFO read is followed by a write-back; allow in-flight slack.
  EXPECT_NEAR(static_cast<double>(core.lines_written()),
              static_cast<double>(core.lines_read()), 16.0);
  EXPECT_GT(core.write_station().completions(), 0u);
  EXPECT_NEAR(core.write_station().mean_latency_ns(), 10.0, 3.0);
}

TEST(Core, ThinkTimeThrottlesIssueRate) {
  Stack s;
  cpu::CoreWorkload fast;
  cpu::CoreWorkload slow = fast;
  slow.think = ns(50);
  slow.region.base = 8ull << 30;
  cpu::Core a(s.sim, s.cha, {}, fast, 0, 1);
  cpu::Core b(s.sim, s.cha, {}, slow, 1, 2);
  a.start();
  b.start();
  s.sim.run_until(us(100));
  // ~one access per 50 ns -> ~20 lines/us; the unthrottled core does many more.
  EXPECT_LT(b.lines_read(), 100u * 25);
  EXPECT_GT(a.lines_read(), b.lines_read() * 3);
}

TEST(Core, EpisodicWorkloadCountsQueries) {
  Stack s;
  cpu::CoreWorkload wl;
  wl.pattern = cpu::CoreWorkload::Pattern::kRandom;
  wl.episode_reads = 4;
  wl.episodes_per_query = 3;
  wl.episode_compute = ns(100);
  cpu::Core core(s.sim, s.cha, {}, wl, 0, 1);
  core.start();
  s.sim.run_until(us(100));
  EXPECT_GT(core.queries(), 50u);
  // Each query = 3 episodes x 4 reads.
  EXPECT_NEAR(static_cast<double>(core.lines_read()),
              static_cast<double>(core.queries()) * 12.0, 13.0);
}

TEST(Core, ResetClearsWindowCounters) {
  Stack s;
  cpu::CoreWorkload wl;
  cpu::Core core(s.sim, s.cha, {}, wl, 0, 1);
  core.start();
  s.sim.run_until(us(10));
  core.reset_counters(s.sim.now());
  EXPECT_EQ(core.lines_read(), 0u);
  s.sim.run_until(us(20));
  EXPECT_GT(core.lines_read(), 0u);
}

TEST(Iio, WriteCreditsBoundInFlight) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.link_gb_per_s = 64.0;  // faster than the IIO can drain: credits bind
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(us(100));
  EXPECT_LE(s.iio.write_station().max_occupancy(), 92);
  EXPECT_GE(s.iio.write_station().max_occupancy(), 80);
  EXPECT_GT(dev.bytes_transferred(), 0u);
}

TEST(Iio, ReadCreditsBoundInFlight) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kRead;
  sc.link_gb_per_s = 64.0;
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(us(100));
  EXPECT_LE(s.iio.read_station().max_occupancy(), 192);
  EXPECT_GT(dev.bytes_transferred(), 0u);
}

/// A PCIe device that keeps up to `window` DMA reads to random lines in
/// flight and records every tag the IIO hands back. Its tags carry its id
/// in the high word.
class ReadProbe final : public iio::Device {
 public:
  ReadProbe(iio::Iio& iio, std::uint64_t id, std::uint64_t reads, std::uint64_t window)
      : iio_(iio), id_(id), rng_(id), reads_(reads), window_(window) {}

  void pump() {
    while (issued_ < reads_ && issued_ - returned.size() < window_) {
      const std::uint64_t addr = (64ull << 30) + rng_.below(1u << 20) * kCachelineBytes;
      if (!iio_.try_dma(mem::Op::kRead, addr, this, (id_ << 32) | issued_)) return;
      ++issued_;
    }
  }
  bool done() const { return returned.size() == reads_; }

  void on_credit_available(mem::Op) override { pump(); }
  void on_read_data(std::uint64_t tag, Tick) override {
    returned.push_back(tag);
    pump();
  }
  flow::CreditWaiter& credit_waiter(mem::Op op) override { return waiters_[op]; }

  std::vector<std::uint64_t> returned;

 private:
  iio::Iio& iio_;
  const std::uint64_t id_;
  Rng rng_;
  const std::uint64_t reads_;
  const std::uint64_t window_;
  std::uint64_t issued_ = 0;
  flow::OpWaiters<ReadProbe, &ReadProbe::on_credit_available> waiters_{*this};
};

iio::Iio::State iio_state(const iio::Iio& iio) {
  iio::Iio::Snapshot snap;
  iio.save_state(snap);
  return snap.st_;
}

TEST(Iio, ReadSlotsAreLowestFreeAndReturnToTheirDevice) {
  // Two devices on one IIO, whose windows add up to more than the read
  // credits, keep every slot busy at times and leave several free at
  // others, while DRAM returns their lines out of order. Event by event,
  // the slots a step takes must be the lowest ones free after the step's
  // own frees (the scan from slot 0 that the free-slot bitset replaces),
  // and the bitset must mark exactly the free slots.
  Stack s;
  const std::uint32_t credits = iio::IioConfig{}.read_credits;
  ReadProbe a(s.iio, 1, 3000, 150);
  ReadProbe b(s.iio, 2, 3000, 90);
  a.pump();
  b.pump();
  iio::Iio::State prev = iio_state(s.iio);
  ASSERT_EQ(prev.pending_reads.size(), credits);
  std::uint64_t steps = 0;
  while (!(a.done() && b.done())) {
    ASSERT_TRUE(s.sim.step());
    ASSERT_LT(++steps, 2'000'000u);
    const iio::Iio::State now = iio_state(s.iio);
    ASSERT_LE(now.pending_reads.size(), credits);
    ASSERT_EQ(now.free_slots.size(), (now.pending_reads.size() + 63) / 64);
    // A taken slot was free before the step or freed by it, so it is
    // itself a candidate: taken must be a prefix of candidates.
    std::vector<std::uint64_t> candidates;  // free once this step's frees land
    std::vector<std::uint64_t> taken;
    for (std::uint64_t i = 0; i < now.pending_reads.size(); ++i) {
      const bool free_bit = (now.free_slots[i / 64] >> (i % 64)) & 1;
      ASSERT_EQ(free_bit, now.pending_reads[i].dev == nullptr) << "slot " << i;
      const bool existed = i < prev.pending_reads.size();
      const iio::Iio::Pending before = existed ? prev.pending_reads[i] : iio::Iio::Pending{};
      const iio::Iio::Pending after = now.pending_reads[i];
      if (before.dev == nullptr || !(before == after)) candidates.push_back(i);
      if (after.dev != nullptr && !(before == after)) taken.push_back(i);
    }
    ASSERT_TRUE(std::equal(taken.begin(), taken.end(), candidates.begin()))
        << "step " << steps << " took slot " << taken.front() << ", lowest free was "
        << candidates.front();
    prev = now;
  }
  EXPECT_EQ(s.iio.read_station().max_occupancy(), credits);

  bool out_of_order = false;
  for (const ReadProbe* p : {&a, &b}) {
    std::vector<std::uint64_t> got = p->returned;
    for (std::size_t i = 0; i + 1 < got.size(); ++i) out_of_order |= got[i] > got[i + 1];
    std::sort(got.begin(), got.end());
    const std::uint64_t id = p == &a ? 1 : 2;
    for (std::uint64_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], (id << 32) | i) << "device " << id << " got another device's tag";
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Iio, UnloadedWriteLatencyNearCalibration) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.request_bytes = 4096;
  sc.queue_depth = 1;
  sc.per_request_latency = us(8);
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(ms(1));
  EXPECT_NEAR(s.iio.write_station().mean_latency_ns(), 300.0, 15.0);
}

TEST(StorageDevice, LinkPacesThroughput) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.link_gb_per_s = 14.0;
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  const Tick t0 = us(100);
  s.sim.run_until(t0);
  const auto b0 = dev.bytes_transferred();
  s.sim.run_until(t0 + ms(1));
  EXPECT_NEAR(gb_per_s(dev.bytes_transferred() - b0, ms(1)), 14.0, 0.5);
}

TEST(StorageDevice, CompletesRequestsAndCountsIops) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.request_bytes = 64 << 10;
  sc.queue_depth = 2;
  sc.per_request_latency = us(5);
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(ms(1));
  EXPECT_GT(dev.requests_completed(), 50u);
  // Bytes ~ requests x request size (in-flight slack allowed).
  EXPECT_NEAR(static_cast<double>(dev.bytes_transferred()),
              static_cast<double>(dev.requests_completed()) * (64 << 10),
              2.0 * (64 << 10));
}

TEST(StorageDevice, MixedRequestsSplitTraffic) {
  // mixed_fraction flips a fraction of requests to the opposite op: both
  // read and write DMA traffic must appear at the IIO.
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.mixed_fraction = 0.5;
  sc.request_bytes = 16 << 10;
  sc.queue_depth = 4;
  sc.per_request_latency = us(2);
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(ms(1));
  EXPECT_GT(s.iio.write_station().completions(), 100u);
  EXPECT_GT(s.iio.read_station().completions(), 100u);
  const double wr = static_cast<double>(s.iio.write_station().completions());
  const double rd = static_cast<double>(s.iio.read_station().completions());
  EXPECT_NEAR(wr / (wr + rd), 0.5, 0.15);
}

TEST(StorageDevice, PureModeUnaffectedByMixedDefault) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kWrite;
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(us(500));
  EXPECT_EQ(s.iio.read_station().completions(), 0u);
}

TEST(StorageDevice, ReadRequestsRoundTrip) {
  Stack s;
  iio::StorageConfig sc;
  sc.host_op = mem::Op::kRead;
  sc.request_bytes = 16 << 10;
  sc.queue_depth = 2;
  sc.per_request_latency = us(2);
  sc.region.base = 64ull << 30;
  iio::StorageDevice dev(s.sim, s.iio, sc);
  dev.start();
  s.sim.run_until(ms(1));
  EXPECT_GT(dev.requests_completed(), 20u);
}

}  // namespace
}  // namespace hostnet
