// RDMA (RoCE/PFC) case study (paper Appendix C.1/D.1) as P2M placements.
//
// Server-side P2M traffic is generated by a ConnectX-5-like NIC:
//   * ib_write_bw -> inbound writes: the autonomous net::NicDevice with PFC
//     (P2M-Write traffic; PFC pause fraction is a first-class metric), a
//     `rdma_write` placement: rdma_write_p2m() below.
//   * ib_read_bw  -> the NIC DMA-reads server memory to feed the wire
//     (P2M-Read traffic): a line-rate streaming DMA reader, the storage
//     placement workloads::rdma_read().
#pragma once

#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::workloads {

/// The ib_write_bw P2M placement (name "rdma_write").
inline core::P2MSpec rdma_write_p2m(const core::RdmaWriteSpec& spec = {}) {
  core::P2MSpec p;
  p.name = "rdma_write";
  p.rdma_write = spec;
  return p;
}

/// The ib_read_bw P2M placement (name "rdma_read"): storage rdma_read() at
/// the default wire rate.
inline core::P2MSpec rdma_read_p2m() {
  core::P2MSpec p;
  p.name = "rdma_read";
  p.storage = rdma_read();
  return p;
}

}  // namespace hostnet::workloads
