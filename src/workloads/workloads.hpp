// The paper's workload zoo (sections 2.1, 2.2, Appendix B), expressed as
// core / storage-device configurations.
//
// C2M microbenchmarks (modified STREAM, section 2.2):
//   c2m_read        sequential 64 B loads over a 1 GB buffer  (100% reads)
//   c2m_read_write  sequential 64 B stores over a 1 GB buffer (RFO read +
//                   write-back: 50/50 read/write memory traffic)
//
// C2M applications (closed-loop models; parameters chosen to match the
// paper's reported memory intensities, not the apps' absolute throughput):
//   redis_read   YCSB-C over sharded Redis: per query ~2.5 us of compute
//                interleaved with 12 dependent bursts of 8 random misses
//                (~96 cachelines/query; ~1.5 GB/s per core; "spends only a
//                part of its time stalled on memory")
//   redis_write  100% SET: ~50/50 read/write traffic, slightly more
//                memory-intensive than redis_read
//   gapbs_pr     PageRank: random reads at full memory-level parallelism
//                ("stalled on memory accesses nearly all of the time")
//   gapbs_bc     Betweenness centrality: ~80/20 read/write traffic, more
//                compute-intensive (lower per-core bandwidth)
//
// P2M workloads (FIO over locally attached NVMe, section 2.1):
//   fio_p2m_write  100% storage reads, 8 MB sequential  -> DMA writes
//   fio_p2m_read   100% storage writes, 8 MB sequential -> DMA reads
//   fio_4k_qd1     4 KB storage reads at QD1: the low-load probe used to
//                  measure unloaded P2M-Write domain latency (Fig 6c)
//
// RDMA (RoCE, Appendix C.1):
//   rdma_read      ib_read_bw at the server: the NIC streams server memory to
//                  the wire, a line-rate sequential DMA reader (P2M-Read).
//                  ib_write_bw is a NIC placement: net::rdma_write_p2m().
#pragma once

#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "iio/storage_device.hpp"
#include "mem/request.hpp"

namespace hostnet::workloads {

// ---------------------------------------------------------------------------
// Address-space layout: distinct workloads use disjoint regions (the paper's
// apps access different address spaces; intermixing them at DRAM is what
// degrades row locality).
// ---------------------------------------------------------------------------
inline mem::Region c2m_core_region(std::uint32_t core_index) {
  return mem::Region{(4ull + core_index) << 30, 1ull << 30};
}
inline mem::Region c2m_shared_region() { return mem::Region{40ull << 30, 5ull << 30}; }
inline mem::Region p2m_region() { return mem::Region{128ull << 30, 4ull << 30}; }

// -- C2M microbenchmarks -----------------------------------------------------

inline cpu::CoreWorkload c2m_read(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kSequential;
  w.region = r;
  return w;
}

inline cpu::CoreWorkload c2m_read_write(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kSequential;
  w.region = r;
  w.write_fraction = 1.0;
  return w;
}

// -- C2M application models ---------------------------------------------------

inline cpu::CoreWorkload redis_read(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kRandom;
  w.region = r;
  w.episode_reads = 8;
  w.episodes_per_query = 12;
  w.episode_compute = ns(210);  // ~2.5 us compute per query, split per episode
  return w;
}

inline cpu::CoreWorkload redis_write(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kRandom;
  w.region = r;
  w.episode_reads = 2;
  w.episode_writes = 6;  // stores: RFO + write-back -> ~43% write traffic
  w.episodes_per_query = 12;
  w.episode_compute = ns(180);
  return w;
}

inline cpu::CoreWorkload gapbs_pr(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kRandom;
  w.region = r;
  return w;
}

inline cpu::CoreWorkload gapbs_bc(mem::Region r) {
  cpu::CoreWorkload w;
  w.pattern = cpu::CoreWorkload::Pattern::kRandom;
  w.region = r;
  w.write_fraction = 0.25;  // 25% stores -> ~20% of memory traffic is writes
  w.think = ns(14);         // heavier per-access compute than PageRank
  return w;
}

// -- P2M workloads -------------------------------------------------------------

inline iio::StorageConfig fio_p2m_write(const core::HostConfig& host, mem::Region r) {
  iio::StorageConfig s;
  s.host_op = mem::Op::kWrite;  // storage reads DMA-write into memory
  s.request_bytes = 8ull << 20;
  s.queue_depth = 4;
  s.link_gb_per_s = host.pcie_write_gb_per_s;
  s.per_request_latency = us(20);
  s.region = r;
  return s;
}

inline iio::StorageConfig fio_p2m_read(const core::HostConfig& host, mem::Region r) {
  iio::StorageConfig s;
  s.host_op = mem::Op::kRead;  // storage writes DMA-read from memory
  s.request_bytes = 8ull << 20;
  s.queue_depth = 4;
  s.link_gb_per_s = host.pcie_read_gb_per_s;
  s.per_request_latency = us(20);
  s.region = r;
  return s;
}

inline iio::StorageConfig fio_4k_qd1(const core::HostConfig& host, mem::Region r) {
  iio::StorageConfig s;
  s.host_op = mem::Op::kWrite;
  s.request_bytes = 4096;
  s.queue_depth = 1;
  s.link_gb_per_s = host.pcie_write_gb_per_s;
  s.per_request_latency = us(8);
  s.region = r;
  return s;
}

// -- RDMA ----------------------------------------------------------------------

inline iio::StorageConfig rdma_read(double wire_gb_per_s = 12.25) {
  iio::StorageConfig s;
  s.host_op = mem::Op::kRead;
  s.request_bytes = 1ull << 20;
  s.queue_depth = 8;
  s.link_gb_per_s = wire_gb_per_s;
  s.per_request_latency = us(2);
  s.region = p2m_region();
  return s;
}

}  // namespace hostnet::workloads
