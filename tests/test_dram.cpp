// Unit + property tests for the DRAM model: address mapping and bank state.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/timing.hpp"

namespace hostnet::dram {
namespace {

AddressMap cl_map(BankHash hash = BankHash::kXorHash) {
  return AddressMap(2, 32, 8192, 256, hash, 8192);
}

TEST(AddressMap, CoordinatesWithinBounds) {
  const auto m = cl_map();
  for (std::uint64_t a = 0; a < (8ull << 20); a += 64) {
    const Coord c = m.decode(a);
    EXPECT_LT(c.channel, 2u);
    EXPECT_LT(c.bank, 32u);
    EXPECT_LT(c.col, 128u);
  }
}

TEST(AddressMap, Deterministic) {
  const auto m = cl_map();
  const Coord a = m.decode(0x123456780);
  const Coord b = m.decode(0x123456780);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.col, b.col);
}

TEST(AddressMap, DistinctLinesDistinctCells) {
  // No two distinct cachelines may map to the same (channel,bank,row,col).
  const auto m = cl_map();
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint32_t>> seen;
  for (std::uint64_t a = 0; a < (4ull << 20); a += 64) {
    const Coord c = m.decode(a);
    EXPECT_TRUE(seen.insert({c.channel, c.bank, c.row, c.col}).second)
        << "aliased address " << a;
  }
}

TEST(AddressMap, ChannelInterleaveGranularity) {
  const auto m = cl_map();
  // Within one 256 B chunk, the channel must not change.
  for (std::uint64_t base = 0; base < (1 << 20); base += 256) {
    const auto ch = m.decode(base).channel;
    for (std::uint64_t off = 64; off < 256; off += 64)
      EXPECT_EQ(m.decode(base + off).channel, ch);
  }
  // Adjacent chunks alternate channels.
  EXPECT_NE(m.decode(0).channel, m.decode(256).channel);
}

TEST(AddressMap, ChannelOfMatchesDecode) {
  // The CHA routes by channel_of() and the MC queues by decode(): both must
  // name the same channel for every line, whatever the geometry.
  for (const AddressMap& m :
       {cl_map(), cl_map(BankHash::kLinear), AddressMap(1, 16, 8192, 64, BankHash::kXorHash),
        AddressMap(4, 32, 8192, 4096, BankHash::kXorHash, 2048),
        AddressMap(8, 16, 2048, 128, BankHash::kLinear, 512)}) {
    for (std::uint64_t a = 0; a < (4ull << 20); a += 64)
      ASSERT_EQ(m.channel_of(a), m.decode(a).channel) << "address " << a;
    for (std::uint64_t a = 1ull << 40; a < (1ull << 40) + (1 << 20); a += 64)
      ASSERT_EQ(m.channel_of(a), m.decode(a).channel) << "address " << a;
  }
}

TEST(AddressMap, SequentialStreamHasRowLocality) {
  // A sequential stream changes (bank,row) only once per bank-interleave
  // chunk per channel: with 8 KB chunks, 128 lines per channel share a row.
  const auto m = cl_map();
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>> current;
  std::map<std::uint32_t, int> changes;
  const int lines = 1 << 16;
  for (int i = 0; i < lines; ++i) {
    const Coord c = m.decode(static_cast<std::uint64_t>(i) * 64);
    auto& cur = current[c.channel];
    if (cur != std::make_pair(c.bank, c.row)) {
      cur = {c.bank, c.row};
      ++changes[c.channel];
    }
  }
  // lines/2 per channel, 128 lines per row visit -> ~256 changes.
  for (auto& [ch, n] : changes) EXPECT_NEAR(n, lines / 2 / 128, 2);
}

TEST(AddressMap, XorHashDecorrelatesRegions) {
  // Streams 1 GB apart must not walk identical bank sequences in lockstep.
  const auto m = cl_map(BankHash::kXorHash);
  int same = 0;
  const int chunks = 256;
  for (int i = 0; i < chunks; ++i) {
    const std::uint64_t a = static_cast<std::uint64_t>(i) * 16384;
    const Coord ca = m.decode(a);
    const Coord cb = m.decode(a + (1ull << 30));
    if (ca.bank == cb.bank) ++same;
  }
  EXPECT_LT(same, chunks / 4);  // far below full correlation
}

TEST(AddressMap, LinearHashKeepsLockstep) {
  // The ablation baseline: 1 GB apart -> identical bank sequence.
  const auto m = cl_map(BankHash::kLinear);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = static_cast<std::uint64_t>(i) * 16384;
    EXPECT_EQ(m.decode(a).bank, m.decode(a + (1ull << 30)).bank);
  }
}

TEST(AddressMap, BankCoverageIsUniformOverLargeRegion) {
  const auto m = cl_map();
  std::vector<int> counts(32, 0);
  const int n = 1 << 14;
  for (int i = 0; i < n; ++i)
    ++counts[m.decode(static_cast<std::uint64_t>(i) * 16384).bank];  // one per chunk
  for (int c : counts) EXPECT_NEAR(c, n / 32, n / 32 * 0.35);
}

struct MapParams {
  std::uint32_t channels;
  std::uint32_t banks;
  std::uint32_t bank_ilv;
};

class AddressMapProperty : public ::testing::TestWithParam<MapParams> {};

TEST_P(AddressMapProperty, NoAliasingAndBounds) {
  const auto p = GetParam();
  const AddressMap m(p.channels, p.banks, 8192, 256, BankHash::kXorHash, p.bank_ilv);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint32_t>> seen;
  for (std::uint64_t a = 0; a < (2ull << 20); a += 64) {
    const Coord c = m.decode(a);
    ASSERT_LT(c.channel, p.channels);
    ASSERT_LT(c.bank, p.banks);
    ASSERT_LT(c.col, 8192u / 64);
    ASSERT_TRUE(seen.insert({c.channel, c.bank, c.row, c.col}).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, AddressMapProperty,
                         ::testing::Values(MapParams{2, 32, 8192}, MapParams{4, 32, 8192},
                                           MapParams{2, 16, 8192}, MapParams{2, 32, 256},
                                           MapParams{4, 16, 1024}, MapParams{2, 32, 2048}));

// ---------------------------------------------------------------------------
// Bank state machine
// ---------------------------------------------------------------------------

TEST(Bank, FirstAccessIsMissEmpty) {
  Bank b;
  Timing t;
  EXPECT_EQ(b.prepare(0, 5, t), RowResult::kMissEmpty);
  EXPECT_EQ(b.ready_at(), t.t_rcd);  // ACT only
  EXPECT_TRUE(b.has_open_row());
  EXPECT_EQ(b.open_row(), 5u);
}

TEST(Bank, SameRowIsHit) {
  Bank b;
  Timing t;
  b.prepare(0, 5, t);
  b.column_access(b.ready_at(), false, t);
  const Tick now = b.ready_at() + ns(10);
  EXPECT_EQ(b.prepare(now, 5, t), RowResult::kHit);
  EXPECT_LE(b.ready_at(), now + t.t_rcd);
}

TEST(Bank, DifferentRowIsConflictAndPaysPrecharge) {
  Bank b;
  Timing t;
  t.t_page_close_idle = ms(1);  // disable the idle-close for this test
  b.prepare(0, 5, t);
  b.column_access(b.ready_at(), false, t);
  const Tick now = b.ready_at() + ns(1);
  EXPECT_EQ(b.prepare(now, 6, t), RowResult::kMissConflict);
  // Conflict pays at least tRP + tRCD after tRAS expiry.
  EXPECT_GE(b.ready_at(), t.t_ras + t.t_rp + t.t_rcd);
}

TEST(Bank, RespectsRowOpenMinimumTime) {
  Bank b;
  Timing t;
  t.t_page_close_idle = ms(1);
  b.prepare(0, 1, t);  // activated at 0
  // Immediately conflicting: precharge cannot start before tRAS.
  b.prepare(b.ready_at(), 2, t);
  EXPECT_GE(b.ready_at(), t.t_ras + t.t_rp + t.t_rcd);
}

TEST(Bank, WriteRecoveryDelaysPrecharge) {
  Bank b;
  Timing t;
  t.t_page_close_idle = ms(1);
  b.prepare(0, 1, t);
  const Tick w = std::max(b.ready_at(), t.t_ras);
  b.column_access(w, true, t);  // write at time w
  b.prepare(w + ns(1), 2, t);
  EXPECT_GE(b.ready_at(), w + t.t_wr + t.t_rp + t.t_rcd);
}

TEST(Bank, IdleRowIsClosedByPagePolicy) {
  Bank b;
  Timing t;  // default t_page_close_idle = 100 ns
  b.prepare(0, 5, t);
  b.column_access(b.ready_at(), false, t);
  const Tick idle = b.ready_at() + t.t_page_close_idle + ns(1);
  // Same row after the idle timeout: row was closed -> ACT, not a hit,
  // and no precharge penalty (closed in the background).
  EXPECT_EQ(b.prepare(idle, 5, t), RowResult::kMissEmpty);
  EXPECT_LE(b.ready_at(), idle + t.t_rcd);
}

TEST(Bank, BusyRowKeptOpenByAccesses) {
  Bank b;
  Timing t;
  b.prepare(0, 5, t);
  Tick now = b.ready_at();
  for (int i = 0; i < 10; ++i) {
    b.column_access(now, false, t);
    now += t.t_page_close_idle / 2;  // never idle past the threshold
    EXPECT_EQ(b.prepare(now, 5, t), RowResult::kHit) << i;
  }
}

}  // namespace
}  // namespace hostnet::dram
