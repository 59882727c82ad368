// Simulator micro-benchmarks (google-benchmark): event-kernel throughput,
// DRAM decode, full-host simulation speed, and parallel sweep scaling.
// These guard against performance regressions that would make the figure
// benches impractical. Every number here times simulation work (or a
// checkpoint round trip), never a lookup of an already-simulated result.
//
// Run `ctest -R bench_sim_perf_json` (or this binary with
// --benchmark_out=BENCH_sim_perf.json --benchmark_out_format=json) to emit
// machine-readable results for perf tracking across PRs.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "dram/address_map.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "mc/channel.hpp"
#include "net/dctcp.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

// ---- allocation-counting probe ---------------------------------------------
// Counts every global operator new so benchmarks can report allocations per
// event. Only deltas taken inside the measured loops are reported.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

// GCC flags free() inside a replaced operator delete as mismatched; the
// pairing is correct (our operator new mallocs), so silence it here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace hostnet;

// ---- event-kernel benchmarks -----------------------------------------------
// The closure mirrors the dominant real schedule sites ([this, mem::Request]
// ~= 56 B): big enough that std::function heap-allocates it, small enough
// that sim::Event stores it inline. Arg = number of concurrent event chains
// (steady-state queue occupancy): a loaded host keeps dozens to hundreds of
// events pending (LFB entries, MC queues, IIO), where the calendar queue
// must stay O(1) per operation.

// Long enough that the queue's node-pool warm-up (a one-time cost in real
// runs) amortizes away instead of dominating the per-iteration numbers.
constexpr std::uint64_t kChainEvents = 1000000;

struct ChainEvent {
  sim::Simulator* s;
  std::uint64_t delay;
  std::array<std::uint64_t, 5> payload;  // pad to the 56 B request-closure shape
  void operator()() const {
    if (s->events_executed() < kChainEvents)
      s->schedule(static_cast<Tick>(delay), ChainEvent{s, delay, payload});
  }
};

void BM_EventKernel(benchmark::State& state) {
  const auto chains = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    const std::uint64_t a0 = alloc_count();
    for (std::uint64_t c = 0; c < chains; ++c)
      sim.schedule_at(static_cast<Tick>(c & 15), ChainEvent{&sim, (c & 15) + 1, {}});
    sim.run_until(ms(1000));
    allocs += alloc_count() - a0;
    events += sim.events_executed();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}

BENCHMARK(BM_EventKernel)->Arg(1)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// Concurrent chains over the real hop-latency spectrum: CHA forwards
/// (4 ns), core returns (22 ns), IIO processing (250 ns), device latency
/// (8 us) -- exercises the L1 bucket scatter and the overflow map, not just
/// the in-window fast path.
struct MixedChain {
  sim::Simulator* s;
  std::uint64_t i;
  std::array<std::uint64_t, 5> payload;  // pad to the inline capacity
  void operator()() const {
    static constexpr Tick kDelays[4] = {ns(4), ns(22), ns(250), us(8)};
    if (s->events_executed() < kChainEvents)
      s->schedule(kDelays[i & 3], MixedChain{s, i + 1, payload});
  }
};

void BM_EventKernelMixedDelays(benchmark::State& state) {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    const std::uint64_t a0 = alloc_count();
    for (std::uint64_t c = 0; c < 32; ++c)
      sim.schedule_at(static_cast<Tick>(c), MixedChain{&sim, c, {}});
    sim.run_until(ms(1000));
    allocs += alloc_count() - a0;
    events += sim.events_executed();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}

BENCHMARK(BM_EventKernelMixedDelays)->Unit(benchmark::kMillisecond);

/// Kernel-only load with a loaded host's queue shape: a few hundred pending
/// events whose delays spread log-uniformly over the hot-path hop range
/// (~2.7k to ~290k ticks), so over a run nearly every L0 slot and L1 bucket
/// is touched. The fixed-delay chains above keep a handful of slots hot and
/// never pay for a wide footprint; this bench does.
constexpr std::size_t kHostShapeChains = 384;
constexpr std::size_t kHostShapeDelays = 1024;

std::array<Tick, kHostShapeDelays> host_shape_delays() {
  std::array<Tick, kHostShapeDelays> d{};
  Rng rng(2024);
  const double lo = std::log(static_cast<double>(ns(2.7)));
  const double hi = std::log(static_cast<double>(ns(290)));
  for (Tick& t : d) t = static_cast<Tick>(std::exp(lo + (hi - lo) * rng.uniform()));
  return d;
}

struct HostShapeChain {
  sim::Simulator* s;
  const std::array<Tick, kHostShapeDelays>* delays;
  std::uint64_t i;
  std::array<std::uint64_t, 4> payload;  // pad to the 56 B request-closure shape
  void operator()() const {
    if (s->events_executed() < kChainEvents)
      s->schedule((*delays)[i % kHostShapeDelays], HostShapeChain{s, delays, i + 7, payload});
  }
};

void BM_EventKernelHostShape(benchmark::State& state) {
  static const auto delays = host_shape_delays();
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    const std::uint64_t a0 = alloc_count();
    for (std::uint64_t c = 0; c < kHostShapeChains; ++c)
      sim.schedule_at(static_cast<Tick>(c), HostShapeChain{&sim, &delays, c * 131, {}});
    sim.run_until(ms(1000));
    allocs += alloc_count() - a0;
    events += sim.events_executed();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}
BENCHMARK(BM_EventKernelHostShape)->Unit(benchmark::kMillisecond);

/// Adversarial in-slot ordering for the calendar queue's sorted L0 slots.
/// Each batch files kDenseSlotTicks events at distinct ticks of one
/// 32-tick-aligned span (one L0 slot), ~256 ticks ahead. Arg 0 pushes them
/// in descending tick order, so each lands ahead of the slot's head; Arg 1
/// pins the span's last tick first and then pushes the rest ascending, so
/// each lands just ahead of the tail and behind every earlier push, and its
/// walk from the head passes them all: the in-slot worst case. The batch
/// event re-arms at the span's last tick, behind the batch.
constexpr Tick kDenseSlotTicks = 32;

struct DenseSlotLeaf {
  std::array<std::uint64_t, 6> payload;  // pad to the 56 B request-closure shape
  void operator()() const { benchmark::DoNotOptimize(payload[0]); }
};

struct DenseSlotBatch {
  sim::Simulator* s;
  std::int64_t pattern;
  void operator()() const {
    if (s->events_executed() >= kChainEvents) return;
    const Tick base = (s->now() / kDenseSlotTicks + 8) * kDenseSlotTicks;
    const Tick last = base + kDenseSlotTicks - 1;
    if (pattern == 0) {
      for (Tick t = last; t >= base; --t) s->schedule_at(t, DenseSlotLeaf{});
    } else {
      s->schedule_at(last, DenseSlotLeaf{});
      for (Tick t = base; t < last; ++t) s->schedule_at(t, DenseSlotLeaf{});
    }
    s->schedule_at(last, DenseSlotBatch{s, pattern});
  }
};

void BM_EventKernelDenseSlot(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.schedule_at(0, DenseSlotBatch{&sim, state.range(0)});
    sim.run_until(ms(1000));
    events += sim.events_executed();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventKernelDenseSlot)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- MC-channel microbenchmark ---------------------------------------------
// Synthetic closed-loop enqueue stream straight into one mc::Channel -- no
// CHA/CPU above it and (almost) no kernel dispatch beside the channel's own
// events -- so channel-level scheduling wins are measurable in isolation.
// The listener refills the queues synchronously on every freed slot (the
// same reentrant shape as Cha::on_rpq_slot_freed admitting a parked read),
// keeping them near capacity for the whole run. Args: (write %, random
// addressing). Counters: allocations, dead (cancelled) kick events, and
// deduplicated kick requests, all per line.

constexpr std::uint64_t kMcLinesPerIter = 50000;

struct McStream final : mc::ChannelListener {
  sim::Simulator sim;
  dram::AddressMap map{1, 32, 8192, 256, dram::BankHash::kXorHash, 8192};
  mc::ChannelConfig cfg;
  std::unique_ptr<mc::Channel> ch;
  Rng rng{12345};
  double write_fraction;
  bool random_addresses;
  std::uint64_t next_line = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;

  McStream(double wf, bool random) : write_fraction(wf), random_addresses(random) {
    cfg.timing = dram::ddr4_2933();
    ch = std::make_unique<mc::Channel>(sim, cfg, 32, 0, this);
  }

  void pump() {
    while (sent < kMcLinesPerIter) {
      const bool is_write = write_fraction > 0.0 && rng.chance(write_fraction);
      if (is_write ? !ch->wpq_has_space() : !ch->rpq_has_space()) return;
      const std::uint64_t line = random_addresses ? rng.below(1 << 20) : next_line++;
      mem::Request req;
      req.addr = line * kCachelineBytes;
      req.op = is_write ? mem::Op::kWrite : mem::Op::kRead;
      if (is_write)
        ch->enqueue_write(req, map.decode(req.addr));
      else
        ch->enqueue_read(req, map.decode(req.addr));
      ++sent;
    }
  }

  void on_read_data(const mem::Request&, Tick) override { ++completed; }
  void on_wpq_slot_freed(std::uint32_t, Tick) override {
    ++completed;
    pump();
  }
  void on_rpq_slot_freed(std::uint32_t, Tick) override { pump(); }
};

void BM_McChannelOnly(benchmark::State& state) {
  const double write_fraction = static_cast<double>(state.range(0)) / 100.0;
  const bool random_addresses = state.range(1) != 0;
  std::uint64_t lines = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deduped = 0;
  // One stream reused across iterations: the first batch warms the calendar
  // queue's node pool (a one-time cost in real runs), so the measured
  // iterations report steady-state work -- where allocs/line must be zero.
  McStream s(write_fraction, random_addresses);
  s.pump();
  s.sim.run_until(s.sim.now() + ms(10000));  // runs to idle: batch drained
  for (auto _ : state) {
    s.sent = 0;
    s.completed = 0;
    const std::uint64_t c0 = s.ch->kick_stats().cancelled;
    const std::uint64_t d0 = s.ch->kick_stats().deduped;
    const std::uint64_t a0 = alloc_count();
    s.pump();
    s.sim.run_until(s.sim.now() + ms(10000));
    allocs += alloc_count() - a0;
    lines += s.completed;
    cancelled += s.ch->kick_stats().cancelled - c0;
    deduped += s.ch->kick_stats().deduped - d0;
    benchmark::DoNotOptimize(s.completed);
    if (s.completed != kMcLinesPerIter) state.SkipWithError("stream did not drain");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lines));
  const double denom = static_cast<double>(lines ? lines : 1);
  state.counters["allocs_per_line"] = static_cast<double>(allocs) / denom;
  state.counters["cancelled_kicks_per_line"] = static_cast<double>(cancelled) / denom;
  state.counters["deduped_kicks_per_line"] = static_cast<double>(deduped) / denom;
}
BENCHMARK(BM_McChannelOnly)
    ->Args({0, 0})    // sequential reads: row-hit streaming
    ->Args({0, 1})    // random reads: row misses, bank conflicts
    ->Args({30, 1})   // mixed read/write: mode switches + drains
    ->Args({100, 0})  // pure writes: watermark drain cycling
    ->Unit(benchmark::kMillisecond);

// ---- existing coverage -----------------------------------------------------

void BM_AddressDecode(benchmark::State& state) {
  const dram::AddressMap map(2, 32, 8192, 256, dram::BankHash::kXorHash, 8192);
  std::uint64_t addr = 0;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      addr += 64;
      const auto c = map.decode(addr);
      acc += c.bank + c.channel + c.col + static_cast<std::uint64_t>(c.row);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AddressDecode);

void BM_HostSimulation(benchmark::State& state) {
  // Simulated-time throughput of a loaded host, in the paper's quadrant
  // named by Arg: 1 is 4 C2M-Read cores + P2M writes (the CHA/MC read
  // path), 4 is 4 C2M-ReadWrite cores + P2M reads (RFO and writeback, and
  // DMA reads through the IIO read buffer).
  const bool q4 = state.range(0) == 4;
  std::uint64_t kicks_scheduled = 0;
  std::uint64_t kicks_cancelled = 0;
  for (auto _ : state) {
    const auto hc = core::cascade_lake();
    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < 4; ++i) {
      const mem::Region region = workloads::c2m_core_region(i);
      host.add_core(q4 ? workloads::c2m_read_write(region) : workloads::c2m_read(region));
    }
    host.add_storage(q4 ? workloads::fio_p2m_read(hc, workloads::p2m_region())
                        : workloads::fio_p2m_write(hc, workloads::p2m_region()));
    host.run(us(50), us(200));
    benchmark::DoNotOptimize(host.collect().total_mem_gbps());
    for (std::uint32_t c = 0; c < host.mc().num_channels(); ++c) {
      kicks_scheduled += host.mc().channel(c).kick_stats().scheduled;
      kicks_cancelled += host.mc().channel(c).kick_stats().cancelled;
    }
  }
  state.SetLabel(q4 ? "quadrant 4, 250us simulated per iteration"
                    : "quadrant 1, 250us simulated per iteration");
  state.counters["dead_kick_ratio"] =
      static_cast<double>(kicks_cancelled) /
      static_cast<double>(kicks_scheduled ? kicks_scheduled : 1);
}
BENCHMARK(BM_HostSimulation)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TcpStackHost(benchmark::State& state) {
  // Host with a TCP receiver under each pluggable stack (Arg = TcpStackKind).
  // The pacing (bbr) and delay-window (davis) stacks schedule extra events
  // per window; this keeps their event-cost delta over dctcp perf-gated.
  const auto kind = static_cast<net::TcpStackKind>(state.range(0));
  for (auto _ : state) {
    const auto hc = core::cascade_lake();
    core::HostSystem host(hc);
    for (std::uint32_t i = 0; i < 4; ++i)
      host.add_core(workloads::c2m_read_write(workloads::c2m_core_region(i)));
    net::TcpConfig cfg;
    cfg.stack = kind;
    const net::TcpReceiver& rx = host.add_tcp_receiver(cfg, core::copy_core_config(hc, cfg));
    host.run(us(50), us(200));
    benchmark::DoNotOptimize(rx.goodput_gbps(host.sim().now()));
  }
  state.SetLabel(net::to_string(kind) + ", 250us simulated per iteration");
}
BENCHMARK(BM_TcpStackHost)
    ->Arg(static_cast<int>(net::TcpStackKind::kDctcp))
    ->Arg(static_cast<int>(net::TcpStackKind::kBbr))
    ->Arg(static_cast<int>(net::TcpStackKind::kDavis))
    ->Unit(benchmark::kMillisecond);

// ---- parallel sweep scaling ------------------------------------------------

core::RunOptions sweep_options() {
  core::RunOptions o;
  o.warmup = us(20);
  o.measure = us(60);
  return o;
}

/// A 4-point quadrant sweep built cold every time (the reference path):
/// keeps construction + warmup + measurement perf-gated.
void BM_ColdQuadrantSweep(benchmark::State& state) {
  const auto host = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};
  core::Plan plan;
  plan.core_sweep(host, c2m, p2m, cores, sweep_options());
  for (auto _ : state) {
    auto out = core::execute(plan, {1, core::SweepMode::kCold});
    benchmark::DoNotOptimize(out.windows.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cores.size()));
}
BENCHMARK(BM_ColdQuadrantSweep)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Cost of one checkpoint save + restore on a warmed loaded host -- what
/// branching a warm host into another future costs instead of re-warming.
void BM_SnapshotRestore(benchmark::State& state) {
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  for (std::uint32_t i = 0; i < 4; ++i)
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(i)));
  host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
  host.run(us(50), 0);
  core::HostSnapshot snap = host.snapshot();  // warm the snapshot's buffers
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t a0 = alloc_count();
    host.save_state(snap);
    host.restore(snap);
    allocs += alloc_count() - a0;
    benchmark::DoNotOptimize(snap.sim_.st_.now);
  }
  state.counters["allocs_per_roundtrip"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() ? state.iterations() : 1);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

/// Same 4-point sweep on the worker pool; Arg = thread count. Near-linear
/// scaling to 4 threads expected on multi-core hosts (the 9 measurement
/// windows per sweep are fully independent).
void BM_ParallelQuadrantSweep(benchmark::State& state) {
  const auto host = core::cascade_lake();
  core::C2MSpec c2m;
  c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  core::P2MSpec p2m;
  p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
  const std::vector<std::uint32_t> cores{1, 2, 3, 4};
  core::Plan plan;
  plan.core_sweep(host, c2m, p2m, cores, sweep_options());
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto out = core::execute(plan, {threads, core::SweepMode::kFork});
    benchmark::DoNotOptimize(out.windows.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cores.size()));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ParallelQuadrantSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- fleet-scale sweep -----------------------------------------------------

/// A 50-host fleet with 10 distinct template fingerprints, all on one seed
/// beside the same fio_write placement. Measurement jitter gives every
/// replica its own window length, so no window is an outcome hit. run_fleet
/// runs the fleet as one plan, and execute() makes each window fingerprint
/// one job that warms cold once fleet-wide: 10 iso-C2M + 10 colocated + the
/// one iso-P2M window all ten templates share = 21 checkpoint misses per
/// run. Every other window is a shorter window of its job, read on the way
/// to the job's longest (129 checkpoint hits, 0 outcome hits). items/s is
/// hosts/s; the counters keep that split auditable in the JSON output.
std::string fleet_bench_scenario(int templates, int hosts_per_template) {
  std::string s =
      "fleet bench\nseed 3\nwarmup_us 20\nmeasure_us 60\nmeasure_jitter_pct 20\n";
  for (int i = 0; i < templates; ++i) {
    // Distinct fingerprints via workload x core-count (the CLX preset has 8
    // cores, so the sweep folds at 5 and switches application).
    s += "template t" + std::to_string(i) + "\n";
    s += std::string("  c2m tenant-c ") + (i < 5 ? "c2m_read" : "redis_read") +
         " cores=" + std::to_string(i % 5 + 1) + "\n";
    s += "  p2m tenant-p fio_write\nend\n";
  }
  for (int i = 0; i < templates; ++i)
    s += "hosts " + std::to_string(hosts_per_template) + " t" + std::to_string(i) + "\n";
  return s;
}

void BM_FleetSweep(benchmark::State& state) {
  const auto sc = fleet::Scenario::parse(fleet_bench_scenario(10, 5));
  fleet::RunnerOptions opt;
  opt.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t hosts = 0;
  std::uint64_t cp_hits = 0;
  std::uint64_t cp_misses = 0;
  std::uint64_t memo_hits = 0;
  for (auto _ : state) {
    const fleet::FleetReport r = fleet::run_fleet(sc, opt);
    hosts += r.hosts;
    cp_hits += r.cache.checkpoint_hits;
    cp_misses += r.cache.checkpoint_misses;
    memo_hits += r.cache.outcome_hits;
    benchmark::DoNotOptimize(r.agg.hosts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hosts));
  const double iters = static_cast<double>(state.iterations() ? state.iterations() : 1);
  state.counters["checkpoint_hits_per_run"] = static_cast<double>(cp_hits) / iters;
  state.counters["checkpoint_misses_per_run"] = static_cast<double>(cp_misses) / iters;
  state.counters["outcome_hits_per_run"] = static_cast<double>(memo_hits) / iters;
}
BENCHMARK(BM_FleetSweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
