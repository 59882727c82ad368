// RDMA (RoCE/PFC) case study (paper Appendix C.1/D.1) as P2M placements.
//
// Server-side P2M traffic is generated by a ConnectX-5-like NIC:
//   * ib_write_bw -> inbound writes: the autonomous NicDevice with PFC
//     (P2M-Write traffic; PFC pause fraction is a first-class metric). A
//     P2M transport placement: rdma_write_p2m() below.
//   * ib_read_bw  -> the NIC DMA-reads server memory to feed the wire
//     (P2M-Read traffic): a line-rate streaming DMA reader, the storage
//     placement workloads::rdma_read().
#pragma once

#include <memory>

#include "core/experiment.hpp"
#include "core/host_system.hpp"
#include "net/nic_device.hpp"

namespace hostnet::net {

/// Attach an ib_write_bw NIC to `host`: autonomous line-rate arrivals at
/// `wire_gb_per_s`, PFC on, DMA into workloads::p2m_region(). The NIC is
/// attached to the host (HostSystem::attach), so the host stays
/// checkpointable; it must live as long as the host runs.
std::unique_ptr<NicDevice> attach_rdma_write_nic(
    core::HostSystem& host, double wire_gb_per_s = core::RdmaWriteSpec{}.wire_gb_per_s);

/// The transport the P2M factory builds for a `rdma_write` placement,
/// scored by the wire bytes the NIC accepts (GB/s).
std::unique_ptr<core::P2MTransport> make_rdma_write_transport(core::HostSystem& host,
                                                              const core::RdmaWriteSpec& spec);

/// The ib_write_bw P2M placement (name "rdma_write").
core::P2MSpec rdma_write_p2m(const core::RdmaWriteSpec& spec = {});

/// The ib_read_bw P2M placement (name "rdma_read"): storage
/// workloads::rdma_read at the default wire rate.
core::P2MSpec rdma_read_p2m();

}  // namespace hostnet::net
