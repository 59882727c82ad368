// Edge fixture: member declarations that span multiple source lines (the
// type on one line, the name on another; a template type broken across
// lines; a multi-line class head). Declarations end at `;`, not at
// newlines, so every member is found and classified: no findings.
#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

class Lane {
 public:
  struct State {
    std::uint64_t issued = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }

 private:
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Lane);

class Wide final
    : public Base,
      public Other {
 public:
  struct State {
    std::uint64_t retired = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }

 private:
  const std::uint64_t
      width_ = 0;
  std::vector<
      std::unique_ptr<Lane>>
      lanes_;
  State
      st_;
};
HOSTNET_SNAPSHOT_COVERS(Wide);

}  // namespace fixture
