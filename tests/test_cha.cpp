// Unit tests for the CHA: admission, domain completion points, DDIO.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cha/cha.hpp"
#include "mc/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace hostnet::cha {
namespace {

struct RecordingCompleter : mem::Completer {
  std::vector<std::pair<std::uint64_t, Tick>> completions;
  void complete(const mem::Request& req, Tick now) override {
    completions.push_back({req.addr, now});
  }
};

// A raw waiter on the CHA's tracker, retrying one request by hand.
struct RetryWaiter : flow::CreditWaiter {
  Cha* cha = nullptr;
  std::optional<mem::Request> pending;
  int notified = 0;
  void on_credit_available(flow::CreditPool&) override {
    ++notified;
    if (pending && cha->try_submit(*pending)) pending.reset();
  }
};

struct Fixture {
  sim::Simulator sim;
  dram::AddressMap map{2, 32, 8192, 256, dram::BankHash::kXorHash, 8192};
  mc::MemoryController mc;
  ChaConfig cfg;
  std::unique_ptr<Cha> cha;
  RecordingCompleter done;

  explicit Fixture(ChaConfig c = {})
      : mc(sim, mc::ChannelConfig{}, map, nullptr), cfg(c) {
    cha = std::make_unique<Cha>(sim, cfg, mc);
    mc.set_listener(cha.get());
  }

  mem::Request make(std::uint64_t addr, mem::Op op, mem::Source src) {
    mem::Request r;
    r.addr = addr;
    r.op = op;
    r.source = src;
    r.created = sim.now();
    r.completer = &done;
    return r;
  }
};

TEST(Cha, ReadRoundTripCompletesAtCore) {
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kRead, mem::Source::kCpu)));
  f.sim.run_until(us(1));
  ASSERT_EQ(f.done.completions.size(), 1u);
  // Path: proc + fwd + ACT + CAS + trans + return-to-core.
  const Tick expect = f.cfg.t_read_proc + f.cfg.t_read_fwd + ns(13.75) + ns(13.75) +
                      ns(2.73) + f.cfg.t_return_core;
  EXPECT_EQ(f.done.completions[0].second, expect);
}

TEST(Cha, PeripheralReadReturnsViaIioHop) {
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kRead, mem::Source::kPeripheral)));
  f.sim.run_until(us(1));
  ASSERT_EQ(f.done.completions.size(), 1u);
  const Tick expect = f.cfg.t_read_proc + f.cfg.t_read_fwd + ns(13.75) + ns(13.75) +
                      ns(2.73) + f.cfg.t_return_iio;
  EXPECT_EQ(f.done.completions[0].second, expect);
}

TEST(Cha, CpuWriteCompletesAtAdmission) {
  // The C2M-Write domain ends at the CHA: completion fires after the
  // admission ack, long before the write reaches DRAM.
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(64, mem::Op::kWrite, mem::Source::kCpu)));
  f.sim.run_until(us(1));
  ASSERT_EQ(f.done.completions.size(), 1u);
  EXPECT_EQ(f.done.completions[0].second, f.cfg.t_write_ack);
}

TEST(Cha, PeripheralWriteCompletesAtWpqAdmission) {
  // The P2M-Write domain spans the MC: completion fires at WPQ admission.
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(64, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(1));
  ASSERT_EQ(f.done.completions.size(), 1u);
  EXPECT_EQ(f.done.completions[0].second, f.cfg.t_write_proc + f.cfg.t_write_fwd);
}

TEST(Cha, ReadTorExhaustionBlocksAdmission) {
  ChaConfig c;
  c.read_tor = 4;
  Fixture f(c);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(f.cha->try_submit(f.make(static_cast<std::uint64_t>(i) * 64, mem::Op::kRead,
                                         mem::Source::kCpu)));
  EXPECT_FALSE(f.cha->try_submit(f.make(1024, mem::Op::kRead, mem::Source::kCpu)));
  EXPECT_EQ(f.cha->read_tor_used(), 4u);
  f.sim.run_until(us(1));
  // Entries free once data returns.
  EXPECT_EQ(f.cha->read_tor_used(), 0u);
  EXPECT_TRUE(f.cha->try_submit(f.make(2048, mem::Op::kRead, mem::Source::kCpu)));
}

TEST(Cha, BlockedClientIsNotifiedWhenSpaceFrees) {
  ChaConfig c;
  c.read_tor = 2;
  Fixture f(c);
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kRead, mem::Source::kCpu)));
  ASSERT_TRUE(f.cha->try_submit(f.make(64, mem::Op::kRead, mem::Source::kCpu)));
  RetryWaiter client;
  client.cha = f.cha.get();
  client.pending = f.make(128, mem::Op::kRead, mem::Source::kCpu);
  ASSERT_FALSE(f.cha->try_submit(*client.pending));
  f.cha->wait_for_admission(mem::Op::kRead, client);
  f.sim.run_until(us(1));
  EXPECT_GE(client.notified, 1);
  EXPECT_FALSE(client.pending.has_value());
  EXPECT_EQ(f.done.completions.size(), 3u);
}

TEST(Cha, WriteTrackerLimitsOutstandingWrites) {
  ChaConfig c;
  c.write_tracker = 3;
  Fixture f(c);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(f.cha->try_submit(f.make(static_cast<std::uint64_t>(i) * 64, mem::Op::kWrite,
                                         mem::Source::kPeripheral)));
  EXPECT_FALSE(
      f.cha->try_submit(f.make(1024, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(1));
  EXPECT_EQ(f.cha->write_tracker_used(), 0u);
}

TEST(Cha, StationsMeasureResidency) {
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kRead, mem::Source::kCpu)));
  f.sim.run_until(us(1));
  auto& st = f.cha->station(mem::TrafficClass::kC2MRead);
  EXPECT_EQ(st.completions(), 1u);
  // CHA->DRAM read latency excludes the return-to-core hop.
  EXPECT_NEAR(st.mean_latency_ns(),
              to_ns(f.cfg.t_read_proc + f.cfg.t_read_fwd) + 13.75 + 13.75 + 2.73, 0.1);
}

TEST(Cha, LinesAccountedByClass) {
  Fixture f;
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kRead, mem::Source::kCpu)));
  ASSERT_TRUE(f.cha->try_submit(f.make(64, mem::Op::kRead, mem::Source::kPeripheral)));
  ASSERT_TRUE(f.cha->try_submit(f.make(128, mem::Op::kWrite, mem::Source::kCpu)));
  ASSERT_TRUE(f.cha->try_submit(f.make(192, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(1));
  EXPECT_EQ(f.cha->lines_read(mem::TrafficClass::kC2MRead), 1u);
  EXPECT_EQ(f.cha->lines_read(mem::TrafficClass::kP2MRead), 1u);
  EXPECT_EQ(f.cha->lines_written(mem::TrafficClass::kC2MWrite), 1u);
  EXPECT_EQ(f.cha->lines_written(mem::TrafficClass::kP2MWrite), 1u);
}

TEST(Cha, DdioAbsorbsHitAndEmitsVictimWriteback) {
  ChaConfig c;
  c.ddio = true;
  c.ddio_capacity_bytes = 2 * 64;  // 1 set x 2 ways: tiny, forces evictions
  c.ddio_ways = 2;
  Fixture f(c);
  // First two P2M writes allocate (cold, no victim): no memory writes.
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kWrite, mem::Source::kPeripheral)));
  ASSERT_TRUE(f.cha->try_submit(f.make(64, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(1));
  EXPECT_EQ(f.cha->lines_written(mem::TrafficClass::kP2MWrite), 0u);
  // Re-write line 0: DDIO hit, absorbed.
  ASSERT_TRUE(f.cha->try_submit(f.make(0, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(2));
  EXPECT_EQ(f.cha->ddio_hits(), 1u);
  EXPECT_EQ(f.cha->lines_written(mem::TrafficClass::kP2MWrite), 0u);
  // A third distinct line evicts the LRU: exactly one victim write-back.
  ASSERT_TRUE(f.cha->try_submit(f.make(128, mem::Op::kWrite, mem::Source::kPeripheral)));
  f.sim.run_until(us(3));
  EXPECT_EQ(f.cha->lines_written(mem::TrafficClass::kP2MWrite), 1u);
  // All three DMA writes completed back to the IIO (LLC fill semantics).
  EXPECT_EQ(f.done.completions.size(), 4u);
}

TEST(Cha, AdmissionWaitRecorded) {
  Fixture f;
  f.cha->record_admission_wait(mem::TrafficClass::kC2MRead, ns(100));
  f.cha->record_admission_wait(mem::TrafficClass::kC2MRead, 0);
  EXPECT_NEAR(f.cha->mean_admission_wait_ns(mem::TrafficClass::kC2MRead), 50.0, 1e-9);
}

// -- Ingress -------------------------------------------------------------------

/// Per op, the admitted requests in completion order, with their admission
/// times.
struct OpRecorder : mem::Completer {
  std::vector<mem::Request> reads, writes;
  void complete(const mem::Request& req, Tick) override {
    (req.op == mem::Op::kRead ? reads : writes).push_back(req);
  }
};

/// A CPU and a peripheral ingress against a 1-entry read tracker and a
/// 2-entry write tracker whose last entry only peripheral writes may use.
struct IngressFixture : Fixture {
  OpRecorder cpu_done, dev_done;
  Ingress cpu{sim, *cha, mem::Source::kCpu, 0, cpu_done};
  Ingress dev{sim, *cha, mem::Source::kPeripheral, 0, dev_done};
  IngressFixture() : Fixture([] {
    ChaConfig c;
    c.read_tor = 1;
    c.write_tracker = 2;
    c.write_tracker_peripheral_reserve = 1;
    return c;
  }()) {}
  void submit(Ingress& in, mem::Op op, std::uint64_t addr) {
    in.submit(in.request(op, addr, sim.now()));
  }
};

std::vector<std::uint64_t> addrs(const std::vector<mem::Request>& reqs) {
  std::vector<std::uint64_t> out;
  for (const auto& r : reqs) out.push_back(r.addr);
  return out;
}

TEST(Ingress, BlockedRequestsAreAdmittedFifoPerOp) {
  IngressFixture f;
  for (std::uint64_t i = 0; i < 4; ++i) {
    f.submit(f.cpu, mem::Op::kRead, i * 64);
    f.submit(f.cpu, mem::Op::kWrite, 4096 + i * 64);
  }
  // One read and one CPU write fit; the rest wait at the source.
  EXPECT_EQ(f.cha->read_tor_used(), 1u);
  EXPECT_EQ(f.cha->write_tracker_used(), 1u);
  f.sim.run_until(us(2));
  EXPECT_EQ(addrs(f.cpu_done.reads), (std::vector<std::uint64_t>{0, 64, 128, 192}));
  EXPECT_EQ(addrs(f.cpu_done.writes), (std::vector<std::uint64_t>{4096, 4160, 4224, 4288}));
  for (const auto* reqs : {&f.cpu_done.reads, &f.cpu_done.writes})
    for (std::size_t i = 1; i < reqs->size(); ++i)
      EXPECT_GT((*reqs)[i].cha_accepted, (*reqs)[i - 1].cha_accepted);
}

TEST(Ingress, AdmissionWaitIsEachRequestsBlockedTime) {
  IngressFixture f;
  for (std::uint64_t i = 0; i < 4; ++i) {
    f.submit(f.cpu, mem::Op::kRead, i * 64);
    f.submit(f.cpu, mem::Op::kWrite, 4096 + i * 64);
  }
  f.sim.run_until(us(2));
  // Every request was created and submitted at tick 0, so its blocked time
  // is its admission tick.
  for (const auto* reqs : {&f.cpu_done.reads, &f.cpu_done.writes}) {
    ASSERT_EQ(reqs->size(), 4u);
    double sum_ns = 0;
    for (const auto& r : *reqs) sum_ns += to_ns(r.cha_accepted);
    EXPECT_GT(sum_ns, 0.0);
    EXPECT_NEAR(f.cha->mean_admission_wait_ns(reqs->front().cls()), sum_ns / 4, 1e-9);
  }
}

TEST(Ingress, OnlyThePeripheralWriteUsesTheReserve) {
  IngressFixture f;
  f.submit(f.cpu, mem::Op::kWrite, 0);
  f.submit(f.cpu, mem::Op::kWrite, 64);  // blocked: the last entry is reserved
  EXPECT_EQ(f.cha->write_tracker_used(), 1u);
  f.submit(f.dev, mem::Op::kWrite, 128);  // admitted into the reserve
  EXPECT_EQ(f.cha->write_tracker_used(), 2u);
  f.sim.run_until(us(2));
  ASSERT_EQ(f.cpu_done.writes.size(), 2u);
  ASSERT_EQ(f.dev_done.writes.size(), 1u);
  EXPECT_EQ(f.dev_done.writes[0].cha_accepted, 0);
  EXPECT_GT(f.cpu_done.writes[1].cha_accepted, 0);
  EXPECT_EQ(f.cha->mean_admission_wait_ns(mem::TrafficClass::kP2MWrite), 0.0);
  EXPECT_GT(f.cha->mean_admission_wait_ns(mem::TrafficClass::kC2MWrite), 0.0);
}

}  // namespace
}  // namespace hostnet::cha
