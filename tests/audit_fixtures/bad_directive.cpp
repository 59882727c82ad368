// Bad fixture: malformed directives -> three bad-directive findings.
//   * allow() without the mandatory reason
//   * allow() naming a check that can never be allowed
//   * a directive other than allow()
#include <cstdint>

namespace fixture {

class Sloppy {
 public:
  struct State {
    std::uint64_t n = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }

 private:
  // hostnet-audit: allow(snapshot-state)
  const std::uint64_t limit_ = 0;
  // hostnet-audit: allow(stale-allow, stale findings cannot be allowed)
  // hostnet-audit: ignore(st_, not a directive)
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Sloppy);

}  // namespace fixture
