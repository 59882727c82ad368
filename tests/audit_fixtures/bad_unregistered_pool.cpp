// Bad fixture: a flow::CreditPool inside a component's State that never
// reaches a DomainRegistry add()/add_interior() call anywhere in the scanned
// set -> one pool-unregistered finding. (Fixture runs scan only this file,
// so the absence of a registration here is the violation.)
#include <cstdint>

namespace fixture {

class Port {
 public:
  struct State {
    flow::CreditPool txq;  // finding: pool-unregistered
    std::uint64_t sent = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

  flow::CreditPool& txq_pool() { return st_.txq; }

 private:
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Port);

}  // namespace fixture
