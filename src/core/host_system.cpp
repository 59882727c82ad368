#include "core/host_system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace hostnet::core {

HostSystem::HostSystem(const HostConfig& cfg, std::uint64_t seed) : cfg_(cfg), seed_(seed) {
  const std::string err = cfg_.validate();
  if (!err.empty()) throw std::invalid_argument("HostConfig: " + err);
  mc_ = std::make_unique<mc::MemoryController>(sim_, cfg_.mc, cfg_.make_address_map(),
                                               nullptr);
  cha_ = std::make_unique<cha::Cha>(sim_, cfg_.cha, *mc_);
  mc_->set_listener(cha_.get());
  iios_.push_back(std::make_unique<iio::Iio>(sim_, *cha_, cfg_.iio, 0));
}

std::size_t HostSystem::add_iio_stack(const iio::IioConfig& icfg) {
  assert(!st_.started && "add components before run()");
  iios_.push_back(std::make_unique<iio::Iio>(
      sim_, *cha_, icfg, static_cast<std::uint16_t>(iios_.size())));
  return iios_.size() - 1;
}

cpu::Core& HostSystem::add_core(const cpu::CoreWorkload& wl) {
  assert(!st_.started && "add components before run()");
  const auto id = static_cast<std::uint16_t>(cores_.size());
  std::uint64_t sm = seed_ + 0x1000 + id;
  cores_.push_back(
      std::make_unique<cpu::Core>(sim_, *cha_, cfg_.core, wl, id, splitmix64(sm)));
  return *cores_.back();
}

iio::StorageDevice& HostSystem::add_storage(const iio::StorageConfig& scfg,
                                             std::size_t stack) {
  assert(!st_.started && "add components before run()");
  assert(stack < iios_.size());
  storage_.push_back(std::make_unique<iio::StorageDevice>(sim_, *iios_[stack], scfg));
  return *storage_.back();
}

net::NicDevice& HostSystem::add_nic(const net::NicConfig& ncfg) {
  assert(!st_.started && "add components before run()");
  nics_.push_back(std::make_unique<net::NicDevice>(sim_, *iios_[0], ncfg));
  return *nics_.back();
}

net::TcpReceiver& HostSystem::add_tcp_receiver(const net::TcpConfig& tcfg) {
  assert(!st_.started && "add components before run()");
  tcp_receivers_.push_back(std::make_unique<net::TcpReceiver>(
      sim_, *cha_, *iios_[0], cfg_.core, cfg_.pcie_write_gb_per_s, tcfg));
  return *tcp_receivers_.back();
}

hostcc::HostCongestionController& HostSystem::add_hostcc(const hostcc::HostccConfig& hcfg) {
  assert(!st_.started && "add components before run()");
  hostcc_.push_back(
      std::make_unique<hostcc::HostCongestionController>(sim_, *iios_[0], cores_, hcfg));
  return *hostcc_.back();
}

void HostSystem::run(Tick warmup, Tick measure) {
  if (!st_.started) {
    st_.started = true;
    registry_.build(*this);
    for (auto& c : cores_) c->start();
    for (auto& d : storage_) d->start();
    for (auto& n : nics_) n->start();
    for (auto& t : tcp_receivers_) t->start();
    for (auto& h : hostcc_) h->start();
  }
  sim_.run_until(sim_.now() + warmup);
  reset_counters();
  sim_.run_until(sim_.now() + measure);
}

void HostSystem::run_more(Tick extra) { sim_.run_until(sim_.now() + extra); }

void HostSystem::verify_invariants() const {
  sim_.verify_invariants();
  mc_->verify_invariants();
  cha_->verify_invariants();
  for (const auto& i : iios_) i->verify_invariants();
  for (const auto& c : cores_) c->verify_invariants();
  registry_.verify();  // every pool's ledger, host-wide
}

void HostSystem::reset_counters() {
  verify_invariants();
  const Tick now = sim_.now();
  st_.measure_start = now;
  mc_->reset_counters(now);
  cha_->reset_counters(now);
  for (auto& i : iios_) i->reset_counters(now);
  for (auto& c : cores_) c->reset_counters(now);
  for (auto& d : storage_) d->reset_counters();
  for (auto& n : nics_) n->reset_counters(now);
  for (auto& t : tcp_receivers_) t->reset_counters(now);
  for (auto& h : hostcc_) h->reset_counters(now);
}

void HostSystem::restore(const Snapshot& s) {
  // owner_ loads first and refuses another host's snapshot; each owned
  // vector's load then asserts the topology matches.
  load_state(s);
#if defined(HOSTNET_CHECKED) && HOSTNET_CHECKED
  // Restore audit: re-saving the restored event queue must reproduce the
  // snapshot exactly -- i.e. a restore-then-collect run replays the same
  // event sequence the saved run would. Value members are copy-assigned and
  // cannot diverge; the reconstructed calendar queue is the part to audit.
  sim::Simulator::Snapshot resaved;
  sim_.save_state(resaved);
  HOSTNET_INVARIANT(resaved == s.sim_,
                    "HostSystem::restore: restored event queue is not "
                    "identical to the snapshot");
  verify_invariants();
#endif
}

Metrics HostSystem::collect() const {
  verify_invariants();
  const Tick now = sim_.now();
  Metrics m;
  m.window_ns = to_ns(now - st_.measure_start);
  m.channels = mc_->num_channels();
  m.c2m_cores = static_cast<std::uint32_t>(cores_.size());
  const Tick window = now - st_.measure_start;
  if (window <= 0) return m;

  // Memory bandwidth by class, from CHA line counts (DRAM-serviced).
  for (int c = 0; c < mem::kNumTrafficClasses; ++c) {
    const auto cls = static_cast<mem::TrafficClass>(c);
    const std::uint64_t bytes =
        (cha_->lines_read(cls) + cha_->lines_written(cls)) * kCachelineBytes;
    m.mem_gbps[static_cast<std::size_t>(c)] = gb_per_s(bytes, window);
  }

  // C2M domain observations, derived from the registry (the cores' LFB
  // pools under C2M-Read -- averaged per core, as the paper reports -- and
  // their write-phase pools under C2M-Write, summed).
  m.c2m_read = registry_.observe(Domain::kC2MRead, now, window,
                                 flow::OccAggregation::kMean);
  m.c2m_write = registry_.observe(Domain::kC2MWrite, now, window,
                                  flow::OccAggregation::kSum);
  m.lfb_latency_ns = m.c2m_read.latency_ns;
  m.lfb_avg_occupancy = m.c2m_read.credits_in_use;
  m.lfb_max_occupancy = static_cast<std::int64_t>(m.c2m_read.max_credits_used);
  // Little's-law latency is a per-pool derived quantity observe() does not
  // carry; weight it by completions over the same entries.
  {
    double lit_sum = 0;
    std::uint64_t completions = 0;
    registry_.for_each(Domain::kC2MRead, [&](const flow::DomainRegistry::Entry& e) {
      const auto& s = e.pool->station();
      if (s.completions() > 0) {
        lit_sum += s.littles_latency_ns(now) * static_cast<double>(s.completions());
        completions += s.completions();
      }
    });
    if (completions > 0)
      m.lfb_littles_latency_ns = lit_sum / static_cast<double>(completions);
  }
  for (auto& c : cores_) {
    m.c2m_lines_read += c->lines_read();
    m.c2m_lines_written += c->lines_written();
  }
  // The LFB pool completes reads and store write-backs alike, so the C2M
  // throughputs come from the cores' line counters, not pool completions.
  m.c2m_read.throughput_gbps =
      gb_per_s(m.c2m_lines_read * kCachelineBytes, window);
  m.c2m_app_gbps = m.c2m_read.throughput_gbps;
  m.c2m_write.throughput_gbps = gb_per_s(m.c2m_lines_written * kCachelineBytes, window);

  // Queries (episodic workloads).
  std::uint64_t queries = 0;
  for (auto& c : cores_) queries += c->queries();
  m.queries_per_sec = static_cast<double>(queries) / (m.window_ns * 1e-9);

  // P2M domain observations (the IIO stacks' buffers; disjoint pools of one
  // domain, so occupancies sum and throughput follows from the pooled
  // completions -- one cacheline per credit).
  m.p2m_write = registry_.observe(Domain::kP2MWrite, now, window,
                                  flow::OccAggregation::kSum);
  m.p2m_read = registry_.observe(Domain::kP2MRead, now, window,
                                 flow::OccAggregation::kSum);

  // CHA stations.
  m.cha_dram_read_latency_c2m_ns =
      cha_->station(mem::TrafficClass::kC2MRead).mean_latency_ns();
  m.cha_dram_read_latency_p2m_ns =
      cha_->station(mem::TrafficClass::kP2MRead).mean_latency_ns();
  {
    auto& cw = cha_->station(mem::TrafficClass::kC2MWrite);
    auto& pw = cha_->station(mem::TrafficClass::kP2MWrite);
    const std::uint64_t n = cw.completions() + pw.completions();
    if (n > 0)
      m.cha_mc_write_latency_ns =
          (cw.mean_latency_ns() * static_cast<double>(cw.completions()) +
           pw.mean_latency_ns() * static_cast<double>(pw.completions())) /
          static_cast<double>(n);
  }
  m.p2m_reads_in_flight_at_cha =
      cha_->station(mem::TrafficClass::kP2MRead).avg_occupancy(now);
  m.p2m_reads_in_flight_at_cha_max =
      cha_->station(mem::TrafficClass::kP2MRead).max_occupancy();
  m.n_waiting = cha_->write_backlog_occupancy().average(now);
  m.wpq_full_fraction = cha_->wpq_blocked_fraction(now);
  for (int c = 0; c < mem::kNumTrafficClasses; ++c)
    m.cha_admission_wait_ns[static_cast<std::size_t>(c)] =
        cha_->mean_admission_wait_ns(static_cast<mem::TrafficClass>(c));

  // MC aggregates across channels.
  const std::uint32_t nch = mc_->num_channels();
  std::uint64_t hit_r = 0, hit_w = 0;
  for (std::uint32_t i = 0; i < nch; ++i) {
    auto& chan = mc_->channel(i);
    auto& cc = chan.counters();
    m.avg_rpq_occupancy += chan.rpq_pool().station().avg_occupancy(now) / nch;
    m.avg_wpq_occupancy += chan.wpq_pool().station().avg_occupancy(now) / nch;
    m.mc_lines_read += cc.lines_read;
    m.mc_lines_written += cc.lines_written;
    m.mc_switch_cycles += cc.switch_cycles;
    m.mc_act_read += cc.act_read;
    m.mc_act_write += cc.act_write;
    m.mc_pre_conflict_read += cc.pre_conflict_read;
    m.mc_pre_conflict_write += cc.pre_conflict_write;
    hit_r += cc.row_hit_read;
    hit_w += cc.row_hit_write;
    for (double v : cc.bank_deviation.values()) m.bank_deviation.add(v);
  }
  if (m.mc_act_read + hit_r > 0)
    m.row_miss_ratio_read =
        static_cast<double>(m.mc_act_read) / static_cast<double>(m.mc_act_read + hit_r);
  if (m.mc_act_write + hit_w > 0)
    m.row_miss_ratio_write =
        static_cast<double>(m.mc_act_write) / static_cast<double>(m.mc_act_write + hit_w);

  // Devices.
  std::uint64_t dev_bytes = 0, dev_reqs = 0;
  for (auto& d : storage_) {
    dev_bytes += d->bytes_transferred();
    dev_reqs += d->requests_completed();
  }
  m.p2m_dev_gbps = gb_per_s(dev_bytes, window);
  m.p2m_iops = static_cast<double>(dev_reqs) / (m.window_ns * 1e-9);

  return m;
}

}  // namespace hostnet::core
