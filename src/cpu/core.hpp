// CPU core model: the Line Fill Buffer (LFB) and traffic generation.
//
// A core can issue instructions orders of magnitude faster than the memory
// round trip, so the LFB (10-12 entries) is the binding credit pool of the
// C2M-Read domain (paper sections 4.1/5.1): a credit is allocated at issue
// and replenished when data returns from DRAM.
//
// For write workloads we model the paper's observation that, for the
// C2M-ReadWrite (STREAM-store) pattern, the measured LFB latency equals the
// *sum* of the C2M-Read and C2M-Write domain latencies: every store first
// RFO-reads its cacheline (C2M-Read domain), then the entry is held until
// the write is handed to the CHA (C2M-Write domain, ~10 ns unloaded). CHA
// write backpressure therefore throttles the core by holding LFB entries --
// which is exactly the "requests blocked at the cores before being admitted
// into the CHA" phase of the red regime.
//
// Three generation modes cover all the paper's C2M workloads:
//  * stream  (sequential, optional write fraction)  -> C2M-Read / C2M-ReadWrite
//  * random  (uniform in a region, optional writes, optional per-access
//             think time)                           -> GAPBS PR / BC
//  * episodic (compute; burst of B parallel reads; barrier) x K per query
//                                                    -> Redis-like apps
#pragma once

#include <cstdint>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "common/rng.hpp"
#include "counters/station.hpp"
#include "flow/credit_pool.hpp"
#include "mem/request.hpp"
#include "sim/simulator.hpp"

namespace hostnet::cpu {

struct CoreWorkload {
  enum class Pattern : std::uint8_t { kSequential, kRandom } pattern = Pattern::kSequential;
  mem::Region region{};
  /// Fraction of accesses that are stores (RFO read + write-back of the
  /// same line). 1.0 models STREAM-store (50/50 read/write memory traffic).
  double write_fraction = 0.0;
  /// Pause between a slot becoming free and the next issue (compute).
  Tick think = 0;

  // Episodic (request/response app) mode; active when episode_reads > 0.
  std::uint32_t episode_reads = 0;     ///< parallel misses per episode
  std::uint32_t episode_writes = 0;    ///< stores per episode (issued with reads)
  Tick episode_compute = 0;            ///< compute before each episode
  std::uint32_t episodes_per_query = 1;
  HOSTNET_FIELDS(CoreWorkload, pattern, region, write_fraction, think, episode_reads,
                 episode_writes, episode_compute, episodes_per_query)
};

struct CoreConfig {
  /// Upper bound on lfb_entries + prefetch_extra that validate() accepts:
  /// a core holds that many reads in flight, and the figures use at most
  /// 48. A larger sum (or one that wraps uint32) would let a core issue
  /// billions of reads at once.
  static constexpr std::uint32_t kMaxLfbSlots = 1024;
  std::uint32_t lfb_entries = 12;
  /// Extra outstanding-miss slots when the hardware prefetcher helps
  /// (sequential patterns only; L2 streamer running ahead).
  std::uint32_t prefetch_extra = 0;
  Tick t_core_to_cha = ns(20);  ///< L1/L2 miss path + hop to the CHA
  Tick t_wb_to_cha = ns(6);     ///< write handoff to the CHA (C2M-Write hop)
  HOSTNET_FIELDS(CoreConfig, lfb_entries, prefetch_extra, t_core_to_cha, t_wb_to_cha)
};

class Core final : public mem::Completer {
 public:
  Core(sim::Simulator& sim, cha::Cha& cha, const CoreConfig& cfg,
       const CoreWorkload& wl, std::uint16_t id, std::uint64_t seed);

  void start();

  /// Duty-cycle throttling hook (used by the hostCC-style controller): a
  /// paused core stops issuing new requests; in-flight ones complete.
  void set_paused(bool paused);
  bool paused() const { return st_.paused; }

  // -- mem::Completer ---------------------------------------------------------
  void complete(const mem::Request& req, Tick now) override;

  // -- credit pools (in the host's flow::DomainRegistry) ----------------------
  /// C2M-Read domain pool: the LFB entries themselves.
  flow::CreditPool& lfb_pool() { return st_.lfb_pool; }
  /// C2M-Write domain pool (telemetry-only, unbounded): an entry is "in use"
  /// from RFO-data arrival until the CHA acknowledges the write.
  flow::CreditPool& write_pool() { return st_.write_pool; }

  // -- measurement ------------------------------------------------------------
  const counters::LatencyStation& lfb_station() const { return st_.lfb_pool.station(); }
  counters::LatencyStation& write_station() { return st_.write_pool.station(); }
  std::uint64_t lines_read() const { return st_.lines_read; }
  std::uint64_t lines_written() const { return st_.lines_written; }
  std::uint64_t queries() const { return st_.queries; }
  void reset_counters(Tick now);

  /// Checked-build audit (no-op otherwise): C2M request conservation --
  /// every issued access completed or still holds its LFB entry, and the
  /// holdings never exceeded the LFB capacity.
  void verify_invariants() const {
    st_.lfb_pool.verify();
    st_.write_pool.verify();
  }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  // Everything the workload mutates; the rest of the core is construction
  // state or its CHA ingress.
  struct State {
    Rng rng{0};
    flow::CreditPool lfb_pool;    ///< LFB entries (C2M-Read credits + hold time)
    flow::CreditPool write_pool;  ///< C2M-Write phase (send -> CHA ack), unbounded
    std::uint64_t seq_line = 0;
    bool think_pending = false;
    bool paused = false;

    // Episodic state.
    std::uint32_t episode_outstanding = 0;
    std::uint32_t episode_reads_to_issue = 0;
    std::uint32_t episode_writes_to_issue = 0;
    std::uint32_t episodes_done_in_query = 0;
    bool in_compute = false;

    std::uint64_t lines_read = 0;
    std::uint64_t lines_written = 0;
    std::uint64_t queries = 0;

    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, rng, lfb_pool, write_pool, seq_line, think_pending, paused,
                   episode_outstanding, episode_reads_to_issue, episode_writes_to_issue,
                   episodes_done_in_query, in_compute, lines_read, lines_written, queries)
  };

 private:
  std::uint32_t lfb_capacity() const;
  bool episodic() const { return wl_.episode_reads + wl_.episode_writes > 0; }
  std::uint64_t next_seq_addr();
  std::uint64_t random_addr();
  void pump();
  void issue_read(std::uint64_t addr, bool is_store);
  void issue_episode();
  void begin_episode_after_compute();

  sim::Simulator& sim_;
  const CoreConfig cfg_;
  const CoreWorkload wl_;
  const std::uint16_t id_;
  cha::Ingress ingress_;
  State st_;
  HOSTNET_COMPONENT(Core, sim_, cfg_, wl_, id_, ingress_, st_)
};

}  // namespace hostnet::cpu
