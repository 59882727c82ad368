// Edge fixture: members gated behind #ifdef HOSTNET_CHECKED. The auditor
// blanks preprocessor lines but keeps the code between them, so a gated
// member is always audit-visible: the gated State field and the gated const
// member below are both seen, and both are fine. No findings.
#include <cstdint>

namespace fixture {

class Checked {
 public:
  struct State {
    std::uint64_t ticks = 0;
#ifdef HOSTNET_CHECKED
    std::uint64_t audits = 0;
#endif
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

 private:
#ifdef HOSTNET_CHECKED
  const std::uint64_t audit_every_ = 64;
#endif
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Checked);

}  // namespace fixture
