#include "net/rdma.hpp"

#include "net/tcp_stack.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::net {

namespace {

class RdmaWriteTransport final : public core::P2MTransport {
 public:
  RdmaWriteTransport(core::HostSystem& host, double wire_gb_per_s)
      : nic_(attach_rdma_write_nic(host, wire_gb_per_s)) {}

  core::TransportOutcome collect(Tick now) const override {
    core::TransportOutcome t;
    t.goodput_gbps = gb_per_s(nic_->bytes_accepted(), now - nic_->window_start());
    t.pause_fraction = nic_->pause_fraction(now);
    return t;
  }

 private:
  std::unique_ptr<NicDevice> nic_;
};

}  // namespace

std::unique_ptr<NicDevice> attach_rdma_write_nic(core::HostSystem& host, double wire_gb_per_s) {
  NicConfig nc;
  nc.wire_gb_per_s = wire_gb_per_s;
  nc.pcie_gb_per_s = host.config().pcie_write_gb_per_s;
  nc.autonomous = true;
  nc.pfc = true;
  nc.region = workloads::p2m_region();
  auto nic = std::make_unique<NicDevice>(host.sim(), host.iio(), nc);
  NicDevice* n = nic.get();
  host.attach(core::ExternalHooks{
      [n] { n->start(); },
      [n](Tick now) { n->reset_counters(now); },
      [n]() -> std::shared_ptr<const void> {
        auto snap = std::make_shared<NicDevice::Snapshot>();
        n->save_state(*snap);
        return snap;
      },
      [n](const std::shared_ptr<const void>& blob) {
        n->load_state(*static_cast<const NicDevice::Snapshot*>(blob.get()));
      }});
  return nic;
}

std::unique_ptr<core::P2MTransport> make_rdma_write_transport(core::HostSystem& host,
                                                              const core::RdmaWriteSpec& spec) {
  return std::make_unique<RdmaWriteTransport>(host, spec.wire_gb_per_s);
}

core::P2MSpec rdma_write_p2m(const core::RdmaWriteSpec& spec) {
  // The placement is built through the net layer's factory; referencing it
  // here links it into binaries that use RDMA but nothing TCP.
  install_tcp_factory();
  core::P2MSpec p;
  p.name = "rdma_write";
  p.rdma_write = spec;
  return p;
}

core::P2MSpec rdma_read_p2m() {
  core::P2MSpec p;
  p.name = "rdma_read";
  p.storage = workloads::rdma_read();
  return p;
}

}  // namespace hostnet::net
