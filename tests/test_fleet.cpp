// Fleet engine tests (ctest label `fleet`): scenario parsing (positive and
// line-tagged negative cases), expansion determinism, and the runner's two
// determinism contracts -- bit-identical aggregates serial vs parallel, and
// fork vs cold -- plus the structural cache-counter guarantees that prove
// the fingerprint dedup actually happens.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hpp"
#include "common/histogram.hpp"
#include "core/host_system.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"

namespace hostnet {
namespace {

// Short windows: every runner test below simulates tens of microseconds per
// window, keeping the whole suite in seconds.
constexpr const char* kMixedScenario = R"(
fleet mixed
seed 11
warmup_us 20
measure_us 60

template cache
  preset cascade-lake
  c2m tenant-redis redis_read cores=2
  p2m tenant-fio fio_write
end

template analytics
  preset cascade-lake
  set cha.ddio 1
  c2m tenant-gapbs gapbs_pr cores=4
  p2m tenant-fio fio_read
end

hosts 3 cache
hosts 2 analytics
hosts 2 cache
)";

/// A leaf value as `set` accepts it: 0/1, an integer, or a shortest
/// round-trip double.
template <class T>
std::string to_text(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, end);
  }
}

std::size_t error_line(const std::string& text) {
  try {
    fleet::Scenario::parse(text);
  } catch (const fleet::ScenarioError& e) {
    return e.line();
  }
  ADD_FAILURE() << "expected ScenarioError for:\n" << text;
  return 0;
}

TEST(FleetScenario, ParsesMixedScenario) {
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  EXPECT_EQ(sc.name(), "mixed");
  ASSERT_EQ(sc.templates().size(), 2u);
  EXPECT_EQ(sc.templates()[0].name, "cache");
  EXPECT_EQ(sc.templates()[1].name, "analytics");
  EXPECT_TRUE(sc.templates()[1].host.cha.ddio);   // set override applied
  EXPECT_FALSE(sc.templates()[0].host.cha.ddio);  // preset default untouched
  ASSERT_TRUE(sc.templates()[0].c2m.has_value());
  EXPECT_EQ(sc.templates()[0].c2m->cores, 2u);
  EXPECT_TRUE(sc.templates()[0].c2m->per_core_region);
  EXPECT_FALSE(sc.templates()[1].c2m->per_core_region);  // gapbs: shared graph
  // Tenant ids in first-appearance order.
  ASSERT_EQ(sc.tenants().size(), 3u);
  EXPECT_EQ(sc.tenants()[0], "tenant-redis");
  EXPECT_EQ(sc.tenants()[1], "tenant-fio");
  EXPECT_EQ(sc.tenants()[2], "tenant-gapbs");
  EXPECT_EQ(sc.templates()[1].c2m_tenant, 2u);
  EXPECT_EQ(sc.templates()[1].p2m_tenant, 1u);
  EXPECT_EQ(sc.total_hosts(), 7u);
  EXPECT_EQ(sc.base_options().seed, 11u);
  EXPECT_EQ(sc.base_options().warmup, us(20));
  EXPECT_EQ(sc.base_options().measure, us(60));
}

TEST(FleetScenario, ExpansionIsDeterministicAndOrdered) {
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  const auto a = sc.expand();
  const auto b = sc.expand();
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].tmpl, b[i].tmpl);
    EXPECT_EQ(a[i].opt.measure, b[i].opt.measure);
    EXPECT_EQ(a[i].opt.seed, b[i].opt.seed);
  }
  // Group order: 3x cache, 2x analytics, 2x cache.
  EXPECT_EQ(a[0].tmpl, 0u);
  EXPECT_EQ(a[3].tmpl, 1u);
  EXPECT_EQ(a[5].tmpl, 0u);
  // No jitter directive -> identical windows everywhere.
  for (const auto& h : a) EXPECT_EQ(h.opt.measure, us(60));
}

TEST(FleetScenario, MeasureJitterPreservesWarmupAndStaggersWindows) {
  std::string text(kMixedScenario);
  text.insert(text.find("template cache"), "measure_jitter_pct 25\n");
  const fleet::Scenario sc = fleet::Scenario::parse(text);
  const auto hosts = sc.expand();
  bool any_different = false;
  for (const auto& h : hosts) {
    EXPECT_GE(h.opt.measure, us(60));
    EXPECT_LE(h.opt.measure, us(75));
    if (h.opt.measure != hosts[0].opt.measure) any_different = true;
  }
  EXPECT_TRUE(any_different) << "25% jitter over 7 hosts should stagger some windows";
  // Same fingerprint before and after jitter: warmup and seed untouched.
  EXPECT_EQ(sc.base_options().warmup, us(20));
}

TEST(FleetScenario, NegativeCasesCarryLineNumbers) {
  EXPECT_EQ(error_line("template t\nend\n"), 1u);  // first directive must be fleet
  EXPECT_EQ(error_line("fleet f\nbogus 1\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set no.such.key 1\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a no_such_workload\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  p2m a no_such_fio\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\nhosts 1 nope\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\n"), 2u);  // missing end
  EXPECT_EQ(error_line("fleet f\nend\n"), 2u);                          // end outside template
  EXPECT_EQ(error_line("fleet f\ntemplate t\nend\nhosts 1 t\n"), 3u);   // no workload placed
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read cores=999\nend\nhosts 1 t\n"), 4u);
  EXPECT_EQ(error_line("fleet f\nmeasure_jitter_pct 101\n"), 2u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\nend\nhosts 0 t\n"), 5u);
  EXPECT_EQ(error_line("fleet f\n"), 1u);  // places no hosts
  // Duplicate template name.
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  c2m a c2m_read\nend\ntemplate t\n"), 5u);
  // tcp.stack: bad value, and override without a tcp_* placement to rewrite.
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack reno\n  p2m a tcp_dctcp\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack bbr\n  c2m a c2m_read\nend\nhosts 1 t\n"), 3u);
  EXPECT_EQ(error_line("fleet f\ntemplate t\n  set tcp.stack bbr\n  p2m a fio_write\nend\nhosts 1 t\n"), 3u);
  // Window lengths: the default_run_options() check (finite, measure > 0,
  // warmup >= 0). A zero warmup is legitimate.
  for (const char* bad : {"-50", "0", "nan", "inf", "1e300"})
    EXPECT_EQ(error_line(std::string("fleet f\nmeasure_us ") + bad + "\n"), 2u) << bad;
  for (const char* bad : {"-1", "nan", "-inf"})
    EXPECT_EQ(error_line(std::string("fleet f\nwarmup_us ") + bad + "\n"), 2u) << bad;
  EXPECT_EQ(error_line("fleet f\nmeasure_jitter_pct nan\n"), 2u);
  EXPECT_EQ(fleet::Scenario::parse("fleet f\nwarmup_us 0\ntemplate t\n  c2m a c2m_read\nend\n"
                                   "hosts 1 t\n")
                .base_options()
                .warmup,
            0);
  // Integers: a sign is an error, never wrapped, and so is a value past the
  // field's range (a u32 field never truncates 2^32 + 1 to 1).
  const std::string tmpl = "fleet f\ntemplate t\n";
  EXPECT_EQ(error_line(tmpl + "  set core.lfb_entries 4294967297\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  set iio.write_credits -4294967200\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  set cha.ddio_capacity_bytes 18446744073709551616\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  c2m a c2m_read cores=-1\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  c2m a c2m_read cores=4294967297\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  seed -3\n"), 3u);
  EXPECT_EQ(error_line("fleet f\nseed 18446744073709551616\n"), 2u);
  const std::string placed = tmpl + "  c2m a c2m_read\nend\n";
  EXPECT_EQ(error_line(placed + "hosts -1 t\n"), 5u);
  EXPECT_EQ(error_line(placed + "hosts 18446744073709551616 t\n"), 5u);
  // Times are integer picoseconds up to INT64_MAX.
  EXPECT_EQ(error_line(tmpl + "  set mc.timing.t_trans 9223372036854775808\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  set mc.timing.t_trans 2.5\n"), 3u);
  // Bools are 0 or 1, not any integer.
  EXPECT_EQ(error_line(tmpl + "  set cha.ddio 7\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  set cha.peripheral_write_priority 2\n"), 3u);
  // The name and enum leaves are not settable.
  EXPECT_EQ(error_line(tmpl + "  set name x\n"), 3u);
  EXPECT_EQ(error_line(tmpl + "  set dram.hash 0\n"), 3u);
  // Double knobs must be finite and positive; validate() at `end` names them.
  for (const char* key : {"pcie_write_gb_per_s", "pcie_read_gb_per_s", "core_ghz"})
    for (const char* bad : {"nan", "inf", "-1", "0"}) {
      const std::string set = std::string("  set ") + key + " " + bad + "\n";
      EXPECT_EQ(error_line(tmpl + set + "  c2m a c2m_read\nend\nhosts 1 t\n"), 5u) << set;
    }
  // Configs that used to crash (DDIO's set count divides by the ways) or
  // stall (no prep window, no forward token) are refused at `end`.
  const std::string mixed = "  c2m a c2m_read_write cores=2\n  p2m b fio_write\nend\nhosts 1 t\n";
  // A time past 1 s (here INT64_MAX ps) would overflow the clock; an MC
  // queue of 65535 slots or more would wrap the slot arena's 16-bit index.
  for (const char* set : {"  set mc.prep_window 0\n", "  set cha.read_fwd_window 0\n",
                          "  set cha.write_fwd_window 0\n",
                          "  set mc.timing.t_trans 9223372036854775807\n",
                          "  set mc.rpq_capacity 65535\n"})
    EXPECT_EQ(error_line(tmpl + set + mixed), 6u) << set;
  for (const char* set : {"  set cha.ddio_ways 0\n", "  set cha.ddio_capacity_bytes 64\n"})
    EXPECT_EQ(error_line(tmpl + "  set cha.ddio 1\n" + set + mixed), 7u) << set;
  // With DDIO off, the DDIO geometry is not read and not checked.
  EXPECT_NO_THROW(fleet::Scenario::parse(tmpl + "  set cha.ddio_ways 0\n" + mixed));
}

// A core's LFB slots (lfb_entries + prefetch_extra) are capped, and a sum
// that wraps uint32 is refused rather than wrapped: through validate() and
// through a fleet template's `set` lines, refused at its `end`.
TEST(FleetScenario, LfbSlotsPastTheCapAreRefused) {
  constexpr std::uint32_t kCap = cpu::CoreConfig::kMaxLfbSlots;
  const auto validate = [](std::uint32_t lfb, std::uint32_t extra) {
    core::HostConfig c = core::cascade_lake();
    c.core.lfb_entries = lfb;
    c.core.prefetch_extra = extra;
    return c.validate();
  };
  EXPECT_EQ(validate(kCap, 0), "");
  EXPECT_EQ(validate(kCap - 4, 4), "");
  EXPECT_NE(validate(kCap + 1, 0), "");
  EXPECT_NE(validate(kCap, 1), "");
  EXPECT_NE(validate(4294967295u, 0), "");
  EXPECT_NE(validate(12, 4294967295u), "");  // the u32 sum would wrap to 11
  core::HostConfig huge = core::cascade_lake();
  huge.core.lfb_entries = 4294967295u;
  EXPECT_THROW(core::HostSystem h(huge), std::invalid_argument);

  const std::string tmpl = "fleet f\ntemplate t\n";
  const std::string placed = "  c2m a c2m_read\nend\nhosts 1 t\n";
  for (const char* set : {"  set core.lfb_entries 4294967295\n",
                          "  set core.lfb_entries 1025\n",
                          "  set core.prefetch_extra 4294967295\n"})
    EXPECT_EQ(error_line(tmpl + set + placed), 5u) << set;
  EXPECT_NO_THROW(fleet::Scenario::parse(tmpl + "  set core.lfb_entries 1020\n" +
                                         "  set core.prefetch_extra 4\n" + placed));
}

// The presets and every shipped scenario sit inside what validate() accepts
// (the scenarios run validate() at each template's `end`).
TEST(FleetScenario, PresetsAndShippedScenariosValidate) {
  EXPECT_EQ(core::cascade_lake().validate(), "");
  EXPECT_EQ(core::ice_lake().validate(), "");
  std::size_t shipped = 0;
  for (const auto& f : std::filesystem::directory_iterator(HOSTNET_SCENARIO_DIR)) {
    if (f.path().extension() != ".fleet") continue;
    ++shipped;
    EXPECT_NO_THROW(fleet::Scenario::load(f.path().string())) << f.path();
  }
  EXPECT_GE(shipped, 2u);
}

/// Each HostConfig leaf's value as text, by dotted name.
std::map<std::string, std::string> leaf_values(const core::HostConfig& h) {
  std::map<std::string, std::string> out;
  fields::for_each_leaf(h, [&](const std::string& path, const auto& leaf) {
    using T = std::decay_t<decltype(leaf)>;
    if constexpr (std::is_same_v<T, std::string>) out[path] = leaf;
    else if constexpr (std::is_enum_v<T>)
      out[path] = std::to_string(static_cast<std::underlying_type_t<T>>(leaf));
    else out[path] = to_text(leaf);
  });
  return out;
}

// Every numeric and bool HostConfig leaf is a `set` key, and setting it
// changes that leaf and no other. Each value is the first of a few nearby
// candidates that still passes validate() at `end`.
TEST(FleetScenario, EverySettableLeafSetsExactlyThatLeaf) {
  const core::HostConfig base = core::cascade_lake();
  const std::map<std::string, std::string> before = leaf_values(base);
  std::size_t settable = 0;
  fields::for_each_leaf(base, [&](const std::string& key, const auto& leaf) {
    using T = std::decay_t<decltype(leaf)>;
    if constexpr (std::is_arithmetic_v<T>) {
      ++settable;
      std::vector<T> candidates;
      if constexpr (std::is_same_v<T, bool>) candidates = {!leaf};
      else if constexpr (std::is_floating_point_v<T>) candidates = {leaf * 2};
      else candidates = {T(leaf + 1), T(leaf - 1), T(leaf * 2), T(leaf / 2)};
      std::optional<std::string> value;
      for (const T c : candidates) {
        core::HostConfig h = base;
        fields::for_each_leaf(h, [&](const std::string& path, auto& l) {
          if constexpr (std::is_same_v<std::decay_t<decltype(l)>, T>)
            if (path == key) l = c;
        });
        if (c != leaf && h.validate().empty()) {
          value = to_text(c);
          break;
        }
      }
      ASSERT_TRUE(value) << key << ": no candidate value passes validate()";
      const fleet::Scenario sc = fleet::Scenario::parse(
          "fleet f\ntemplate t\n  set " + key + " " + *value +
          "\n  c2m a c2m_read\nend\nhosts 1 t\n");
      std::map<std::string, std::string> expected = before;
      expected[key] = *value;
      EXPECT_EQ(leaf_values(sc.templates()[0].host), expected) << key;
    }
  });
  EXPECT_EQ(settable, 52u);  // 54 host leaves less `name` and `dram.hash`
}

// Three receiver templates that differ only in congestion-control stack --
// one via the workload name, one via the `set tcp.stack` override.
constexpr const char* kStacksScenario = R"(
fleet stacks
seed 5
warmup_us 20
measure_us 60

template rx-dctcp
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_dctcp
end

template rx-bbr
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_bbr
end

template rx-davis
  set tcp.stack davis
  c2m tenant-app c2m_read cores=2
  p2m tenant-tcp tcp_dctcp
end

hosts 2 rx-dctcp
hosts 2 rx-bbr
hosts 2 rx-davis
)";

TEST(FleetScenario, ParsesTcpStackPlacements) {
  const fleet::Scenario sc = fleet::Scenario::parse(kStacksScenario);
  ASSERT_EQ(sc.templates().size(), 3u);
  for (const fleet::HostTemplate& t : sc.templates()) {
    ASSERT_TRUE(t.p2m.has_value());
    ASSERT_TRUE(t.p2m->tcp.has_value());
    EXPECT_FALSE(t.p2m->storage.has_value());
  }
  EXPECT_EQ(sc.templates()[0].p2m->tcp->stack, net::TcpStackKind::kDctcp);
  EXPECT_EQ(sc.templates()[1].p2m->tcp->stack, net::TcpStackKind::kBbr);
  // The override rewrites both the stack and the placement's reported name.
  EXPECT_EQ(sc.templates()[2].p2m->tcp->stack, net::TcpStackKind::kDavis);
  EXPECT_EQ(sc.templates()[2].p2m->name, "tcp_davis");
}

// RDMA placements: ib_write_bw (a PFC NIC behind the transport factory) at
// quadrants 1 and 3, 1/3/5 C2M cores, plus ib_read_bw. Measurement jitter
// gives every replica its own window, so replicas fork from the warmed
// NIC-attached host instead of copying an identical window's outcome.
constexpr const char* kRdmaScenario = R"(
fleet rdma
seed 3
warmup_us 20
measure_us 60
measure_jitter_pct 25

template q1-1
  c2m app c2m_read cores=1
  p2m roce rdma_write
end
template q1-3
  c2m app c2m_read cores=3
  p2m roce rdma_write
end
template q1-5
  c2m app c2m_read cores=5
  p2m roce rdma_write
end
template q3-1
  c2m app c2m_read_write cores=1
  p2m roce rdma_write
end
template q3-3
  c2m app c2m_read_write cores=3
  p2m roce rdma_write
end
template q3-5
  c2m app c2m_read_write cores=5
  p2m roce rdma_write
end
template rd
  c2m app c2m_read cores=3
  p2m roce rdma_read
end

hosts 2 q1-1
hosts 2 q1-3
hosts 2 q1-5
hosts 2 q3-1
hosts 2 q3-3
hosts 2 q3-5
hosts 2 rd
)";

TEST(FleetScenario, ParsesRdmaPlacements) {
  const fleet::Scenario sc = fleet::Scenario::parse(kRdmaScenario);
  ASSERT_EQ(sc.templates().size(), 7u);
  const std::optional<core::P2MSpec>& wr = sc.templates()[0].p2m;
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(wr->name, "rdma_write");
  ASSERT_TRUE(wr->rdma_write.has_value());
  EXPECT_FALSE(wr->storage.has_value());
  EXPECT_FALSE(wr->tcp.has_value());
  const std::optional<core::P2MSpec>& rd = sc.templates()[6].p2m;
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->name, "rdma_read");
  ASSERT_TRUE(rd->storage.has_value());
  EXPECT_EQ(rd->storage->host_op, mem::Op::kRead);
  EXPECT_FALSE(rd->rdma_write.has_value());

  // The unknown-workload error lists the RDMA placements.
  try {
    fleet::Scenario::parse("fleet f\ntemplate t\n  p2m a rdma\nend\nhosts 1 t\n");
    ADD_FAILURE() << "expected ScenarioError";
  } catch (const fleet::ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rdma_write"), std::string::npos) << what;
    EXPECT_NE(what.find("rdma_read"), std::string::npos) << what;
  }
}

TEST(FleetHistogram, MergeMatchesCombinedStream) {
  LatencyHistogram a, b, both;
  for (int i = 1; i <= 1000; ++i) {
    (i % 2 ? a : b).add(static_cast<double>(i));
    both.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.p50(), both.p50());
  EXPECT_EQ(a.p99(), both.p99());
  EXPECT_EQ(a.p999(), both.p999());
}

// ---- runner determinism ----------------------------------------------------

fleet::FleetReport run(const fleet::Scenario& sc, unsigned threads, core::SweepMode mode) {
  fleet::RunnerOptions opt;
  opt.threads = threads;
  opt.mode = mode;
  return fleet::run_fleet(sc, opt);
}

/// Everything except the cache counters (which legitimately differ between
/// fork and cold runs) must match bit-for-bit.
void expect_same_results(const fleet::Scenario& sc, const fleet::FleetReport& x,
                         const fleet::FleetReport& y) {
  EXPECT_EQ(x.hosts, y.hosts);
  EXPECT_EQ(x.agg.hosts, y.agg.hosts);
  EXPECT_EQ(x.agg.regimes, y.agg.regimes);
  EXPECT_EQ(x.agg.total_mem_gbps_sum, y.agg.total_mem_gbps_sum);  // bit-identical, not Near
  ASSERT_EQ(x.agg.tenants.size(), sc.tenants().size());
  ASSERT_EQ(y.agg.tenants.size(), sc.tenants().size());
  for (std::size_t i = 0; i < sc.tenants().size(); ++i) {
    const fleet::TenantAggregate& a = x.agg.tenants[i];
    const fleet::TenantAggregate& b = y.agg.tenants[i];
    EXPECT_EQ(a.placements, b.placements) << sc.tenants()[i];
    EXPECT_EQ(a.colo_score_sum, b.colo_score_sum) << sc.tenants()[i];
    EXPECT_EQ(a.iso_score_sum, b.iso_score_sum) << sc.tenants()[i];
    EXPECT_EQ(a.degradation_sum, b.degradation_sum) << sc.tenants()[i];
    EXPECT_EQ(a.latency.count(), b.latency.count()) << sc.tenants()[i];
    EXPECT_EQ(a.latency.p50(), b.latency.p50()) << sc.tenants()[i];
    EXPECT_EQ(a.latency.p99(), b.latency.p99()) << sc.tenants()[i];
  }
}

TEST(FleetRunner, SerialAndParallelAggregatesAreBitIdentical) {
  // The stacks fleet adds windows shared across templates (one iso-C2M
  // window for all three stacks) to the mixed fleet's per-template ones.
  for (const char* text : {kMixedScenario, kStacksScenario}) {
    const fleet::Scenario sc = fleet::Scenario::parse(text);
    SCOPED_TRACE(sc.name());
    const fleet::FleetReport serial = run(sc, 1, core::SweepMode::kFork);
    const fleet::FleetReport parallel = run(sc, 4, core::SweepMode::kFork);
    expect_same_results(sc, serial, parallel);
    // The cache counters are deterministic too (jobs are by window
    // fingerprint, not by thread), so even the full formatted reports match.
    EXPECT_EQ(fleet::format_report(sc, serial), fleet::format_report(sc, parallel));
  }
}

TEST(FleetRunner, ForkMatchesColdOnJitteredMixedFleet) {
  // Jitter forces distinct measurement windows per replica: the fork run
  // must restore checkpoints (not copy identical outcomes) and still
  // reproduce the cold reference bit-for-bit.
  std::string text(kMixedScenario);
  text.insert(text.find("template cache"), "measure_jitter_pct 25\n");
  const fleet::Scenario sc = fleet::Scenario::parse(text);
  const fleet::FleetReport fork = run(sc, 2, core::SweepMode::kFork);
  const fleet::FleetReport cold = run(sc, 2, core::SweepMode::kCold);
  expect_same_results(sc, fork, cold);
  EXPECT_GT(fork.cache.checkpoint_hits, 0u) << "jittered replicas must fork, not re-warm";
  EXPECT_EQ(cold.cache.checkpoint_hits + cold.cache.checkpoint_misses, 0u)
      << "cold mode must not checkpoint";
}

TEST(FleetRunner, FingerprintDedupIsStructural) {
  // Two templates with distinct host configs -> 2 fingerprints. No jitter
  // -> replicas are bit-identical, so per fingerprint exactly the 3
  // colocation windows warm cold and every replica window is an outcome hit.
  const fleet::Scenario sc = fleet::Scenario::parse(kMixedScenario);
  const fleet::FleetReport r = run(sc, 0, core::SweepMode::kFork);
  EXPECT_EQ(r.fingerprints, 2u);
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.hosts, 7u);
  EXPECT_EQ(r.cache.checkpoint_misses, 3u * 2u);
  EXPECT_EQ(r.cache.outcome_hits, 3u * (7u - 2u));
  EXPECT_EQ(r.cache.checkpoint_hits + r.cache.checkpoint_misses, 3u * 2u);
  EXPECT_EQ(r.cache.checkpoint_hits, 0u) << "identical replicas simulate once; nothing re-runs";
}

TEST(FleetRunner, MixedStacksShardAndForkBitIdentically) {
  // Templates identical except for the TCP stack: the stack kind must
  // reach the fingerprint (3 fold groups, no cross-stack aliasing) and every
  // stack's replicas must fork bit-identically to a cold run.
  const fleet::Scenario sc = fleet::Scenario::parse(kStacksScenario);
  const fleet::FleetReport fork = run(sc, 2, core::SweepMode::kFork);
  const fleet::FleetReport cold = run(sc, 2, core::SweepMode::kCold);
  expect_same_results(sc, fork, cold);
  EXPECT_EQ(fork.fingerprints, 3u);
  EXPECT_EQ(fork.shards, 3u);
  EXPECT_EQ(fork.hosts, 6u);
  // Per template the iso-P2M and colocated windows warm cold; the iso-C2M
  // window carries no stack, so the three stacks share one: 3 * 2 + 1 cold
  // warmups. The identical replica's 3 windows are outcome hits, and so are the
  // second and third stack's iso-C2M windows: 18 windows - 7 warmed.
  EXPECT_EQ(fork.cache.checkpoint_misses, 3u * 2u + 1u);
  EXPECT_EQ(fork.cache.outcome_hits, 3u * 3u * 2u - 7u);
}

TEST(FleetRunner, RdmaWriteForksBitIdenticallyToCold) {
  // The first forked hosts with a PFC NIC attached: the NIC's state rides
  // the checkpoint through its external hooks, so every jittered replica
  // restored from the warmed host must match its cold run bit-for-bit.
  const fleet::Scenario sc = fleet::Scenario::parse(kRdmaScenario);
  const fleet::FleetReport fork = run(sc, 2, core::SweepMode::kFork);
  const fleet::FleetReport cold = run(sc, 2, core::SweepMode::kCold);
  expect_same_results(sc, fork, cold);
  EXPECT_EQ(fork.fingerprints, 7u);
  // 7 templates x 3 windows, less the windows templates share (one seed):
  // the six rdma_write templates' iso-P2M window is one window, and q1-3 and
  // rd share their c2m_read cores=3 iso-C2M window. 21 - 5 - 1 warmups.
  EXPECT_EQ(fork.cache.checkpoint_misses, 3u * 7u - 5u - 1u);
  EXPECT_GT(fork.cache.checkpoint_hits, 0u) << "jittered replicas must fork, not re-warm";
  // Quadrant 3 at 5 cores is red: the RoCE tenant degrades under PFC.
  EXPECT_GT(fork.agg.regime_count(core::Regime::kRed), 0u);

  // The aggregates fold no transport telemetry, so compare the runner's
  // windows themselves: the NIC's pause fraction must fork bit-identically.
  core::Plan plan;
  for (const fleet::HostInstance& h : sc.expand()) {
    const fleet::HostTemplate& t = sc.templates()[h.tmpl];
    plan.colocation(t.host, t.c2m, t.p2m, h.opt);
  }
  const core::Outcomes forked = core::execute(plan, {2, core::SweepMode::kFork});
  const core::Outcomes reference = core::execute(plan, {2, core::SweepMode::kCold});
  double max_pause = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(forked[i].transport, reference[i].transport) << "window " << i;
    max_pause = std::max(max_pause, forked[i].transport.pause_fraction);
  }
  EXPECT_GT(max_pause, 0.0) << "no window exercised PFC";
}

TEST(FleetRunner, SingleSidedHostsAreRegimeNone) {
  const fleet::Scenario sc = fleet::Scenario::parse(
      "fleet solo\nwarmup_us 20\nmeasure_us 60\n"
      "template c\n  c2m a c2m_read cores=2\nend\n"
      "template p\n  p2m b fio_write\nend\n"
      "hosts 2 c\nhosts 2 p\n");
  const fleet::FleetReport r = run(sc, 0, core::SweepMode::kFork);
  EXPECT_EQ(r.hosts, 4u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kNone), 4u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kBlue), 0u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kRed), 0u);
  // One placement per host side.
  EXPECT_EQ(r.agg.tenants[0].placements, 2u);
  EXPECT_EQ(r.agg.tenants[1].placements, 2u);
  // Single-sided hosts run one window each: degradation is exactly 1.
  EXPECT_EQ(r.agg.tenants[0].mean_degradation(), 1.0);
  EXPECT_EQ(r.agg.tenants[1].mean_degradation(), 1.0);
}

TEST(FleetRunner, TenantThatCompletedNothingHasNoLatency) {
  // A 1 ms DRAM transfer time (the 1 s Tick cap allows it): in a 300 us
  // window neither tenant completes a request. An empty window has no
  // latency, so neither tenant gets a latency sample, and the report prints
  // "-" where an empty mean of 0 once printed as the fleet's fastest 1 ns.
  // The host stalled: it has no degradation ratio and no regime, where a
  // ratio of 0 once counted it as "none", better than isolated.
  const fleet::Scenario sc = fleet::Scenario::parse(
      "fleet stall\nwarmup_us 100\nmeasure_us 300\n"
      "template t\n  preset cascade-lake\n  set mc.timing.t_trans 1000000000\n"
      "  c2m a c2m_read_write cores=2\n  p2m b fio_write\nend\nhosts 1 t\n");
  const fleet::FleetReport r = run(sc, 0, core::SweepMode::kFork);
  ASSERT_EQ(r.agg.tenants.size(), 2u);
  for (const fleet::TenantAggregate& t : r.agg.tenants) {
    EXPECT_EQ(t.placements, 1u);
    EXPECT_EQ(t.colo_score_sum, 0.0);
    EXPECT_EQ(t.latency.count(), 0u);
    EXPECT_EQ(t.degradation_samples, 0u);
  }
  EXPECT_EQ(r.agg.stalled, 1u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kNone), 0u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kBlue), 0u);
  EXPECT_EQ(r.agg.regime_count(core::Regime::kRed), 0u);
  // Each tenant row has a "-" degradation cell and three "-" latency columns.
  std::istringstream report(fleet::format_report(sc, r));
  int rows = 0;
  for (std::string line; std::getline(report, line);) {
    if (line.rfind("a ", 0) != 0 && line.rfind("b ", 0) != 0) continue;
    ++rows;
    std::istringstream cells(line);
    std::vector<std::string> v;
    for (std::string c; cells >> c;) v.push_back(c);
    ASSERT_EQ(v.size(), 7u) << line;
    EXPECT_EQ(v[3], "-") << line;
    EXPECT_EQ(v[4], "-") << line;
    EXPECT_EQ(v[5], "-") << line;
    EXPECT_EQ(v[6], "-") << line;
  }
  EXPECT_EQ(rows, 2);
  EXPECT_NE(fleet::format_report(sc, r).find("red 0, stalled 1 (of 1 hosts)"), std::string::npos);
}

}  // namespace
}  // namespace hostnet
