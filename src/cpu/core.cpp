#include "cpu/core.hpp"

#include <cassert>

#include "sim/trace.hpp"

namespace hostnet::cpu {

Core::Core(sim::Simulator& sim, cha::Cha& cha, const CoreConfig& cfg,
           const CoreWorkload& wl, std::uint16_t id, std::uint64_t seed)
    : sim_(sim), cfg_(cfg), wl_(wl), id_(id), ingress_(sim, cha, mem::Source::kCpu, id, *this) {
  st_.rng = Rng(seed);
  flow::CreditPoolSpec lfb;
  lfb.name = "cpu.lfb";
  lfb.domain = mem::TrafficClass::kC2MRead;
  lfb.capacity = lfb_capacity();
  st_.lfb_pool.configure(lfb);
  flow::CreditPoolSpec wr;
  wr.name = "cpu.c2m-write";
  wr.domain = mem::TrafficClass::kC2MWrite;
  wr.capacity = 0;  // telemetry-only: the LFB entry is the binding resource
  st_.write_pool.configure(wr);
}

std::uint32_t Core::lfb_capacity() const {
  // The streaming prefetcher only helps predictable (sequential) patterns;
  // the paper found <5% effect for the random-access workloads.
  const bool seq = wl_.pattern == CoreWorkload::Pattern::kSequential;
  return cfg_.lfb_entries + (seq ? cfg_.prefetch_extra : 0);
}

void Core::start() {
  if (episodic()) {
    begin_episode_after_compute();
  } else {
    pump();
  }
}

std::uint64_t Core::next_seq_addr() {
  const std::uint64_t lines = wl_.region.bytes / kCachelineBytes;
  const std::uint64_t a = wl_.region.base + (st_.seq_line % lines) * kCachelineBytes;
  ++st_.seq_line;
  return a;
}

std::uint64_t Core::random_addr() {
  const std::uint64_t lines = wl_.region.bytes / kCachelineBytes;
  return wl_.region.base + st_.rng.below(lines) * kCachelineBytes;
}

void Core::set_paused(bool paused) {
  if (st_.paused == paused) return;
  st_.paused = paused;
  if (!st_.paused) pump();
}

void Core::pump() {
  if (st_.paused) return;
  if (episodic()) {
    // Issue the remainder of the current episode as LFB slots free up.
    while (st_.lfb_pool.has_space() &&
           (st_.episode_reads_to_issue > 0 || st_.episode_writes_to_issue > 0)) {
      const bool is_store = st_.episode_writes_to_issue > 0;
      if (is_store)
        --st_.episode_writes_to_issue;
      else
        --st_.episode_reads_to_issue;
      issue_read(random_addr(), is_store);
    }
    return;
  }
  while (st_.lfb_pool.has_space() && !st_.think_pending) {
    if (wl_.think > 0) {
      st_.think_pending = true;
      sim_.schedule(wl_.think, [this] {
        st_.think_pending = false;
        if (st_.paused) return;
        if (st_.lfb_pool.has_space()) {
          const bool is_store = wl_.write_fraction > 0.0 && st_.rng.chance(wl_.write_fraction);
          const std::uint64_t addr = wl_.pattern == CoreWorkload::Pattern::kSequential
                                         ? next_seq_addr()
                                         : random_addr();
          issue_read(addr, is_store);
        }
        pump();
      });
      return;
    }
    const bool is_store = wl_.write_fraction > 0.0 && st_.rng.chance(wl_.write_fraction);
    const std::uint64_t addr =
        wl_.pattern == CoreWorkload::Pattern::kSequential ? next_seq_addr() : random_addr();
    issue_read(addr, is_store);
  }
}

void Core::issue_read(std::uint64_t addr, bool is_store) {
  const Tick now = sim_.now();
  st_.lfb_pool.acquire(now);
  // The store's RFO is a read; tag 1 marks it.
  const mem::Request req = ingress_.request(mem::Op::kRead, addr, now, is_store ? 1 : 0);
  sim_.schedule(cfg_.t_core_to_cha, [this, req] { ingress_.submit(req); });
}

void Core::complete(const mem::Request& req, Tick now) {
  if (req.op == mem::Op::kRead) {
    ++st_.lines_read;
    if (req.tag == 1) {
      // Store: data (RFO) arrived; the LFB entry is now held for the write
      // phase until the CHA accepts the write (C2M-Write domain).
      st_.write_pool.acquire(now);
      // Created when the RFO was sent, which keeps LFB latency = read +
      // write; the tag is the write-phase start, for write_pool's station.
      const mem::Request wr = ingress_.request(mem::Op::kWrite, req.addr, req.created,
                                               static_cast<std::uint64_t>(now));
      sim_.schedule(cfg_.t_wb_to_cha, [this, wr] { ingress_.submit(wr); });
      return;
    }
    st_.lfb_pool.release(now, req.created);
    if (auto* tr = sim_.tracer())
      tr->complete_event("c2m-read", "domain", req.created, now - req.created,
                         sim::Tracer::kTrackCore + id_);
  } else {
    // CHA acknowledged the write: C2M-Write credit replenished.
    ++st_.lines_written;
    st_.lfb_pool.release(now, req.created);
    st_.write_pool.release(now, static_cast<Tick>(req.tag));
    if (auto* tr = sim_.tracer())
      tr->complete_event("c2m-store", "domain", req.created, now - req.created,
                         sim::Tracer::kTrackCore + id_);
  }

  if (episodic()) {
    assert(st_.episode_outstanding > 0);
    --st_.episode_outstanding;
    pump();  // issue any not-yet-issued accesses of this episode
    if (st_.episode_outstanding == 0 && st_.episode_reads_to_issue == 0 &&
        st_.episode_writes_to_issue == 0) {
      ++st_.episodes_done_in_query;
      if (st_.episodes_done_in_query >= wl_.episodes_per_query) {
        st_.episodes_done_in_query = 0;
        ++st_.queries;
      }
      begin_episode_after_compute();
    }
    return;
  }
  pump();
}

void Core::begin_episode_after_compute() {
  st_.in_compute = true;
  sim_.schedule(wl_.episode_compute, [this] {
    st_.in_compute = false;
    issue_episode();
  });
}

void Core::issue_episode() {
  st_.episode_reads_to_issue = wl_.episode_reads;
  st_.episode_writes_to_issue = wl_.episode_writes;
  st_.episode_outstanding = wl_.episode_reads + wl_.episode_writes;
  pump();
}

void Core::reset_counters(Tick now) {
  st_.lfb_pool.reset_telemetry(now);
  st_.write_pool.reset_telemetry(now);
  st_.lines_read = 0;
  st_.lines_written = 0;
  st_.queries = 0;
}

}  // namespace hostnet::cpu
