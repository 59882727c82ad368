// Clean fixture: an allow(snapshot-state) on the class head exempts the
// whole class (the one spelling for a class whose snapshot is not a copy of
// its members, like the event kernel's calendar queue), and a member-level
// allow() covers exactly one member. Both allows are used: no findings.
#include <cstdint>
#include <vector>

namespace fixture {

// hostnet-audit: allow(snapshot-state, the snapshot is the logical content; load_state rebuilds the storage)
class Queue {
 public:
  struct Snapshot {
    std::vector<std::uint64_t> items;
  };
  void save_state(Snapshot& out) const;
  void load_state(const Snapshot& s);

 private:
  std::vector<std::uint64_t> storage_;
  std::uint32_t head_ = 0;
};
HOSTNET_SNAPSHOT_COVERS(Queue);

class Wired {
 public:
  struct State {
    std::uint64_t n = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }

 private:
  // hostnet-audit: allow(snapshot-state, observer attached once after construction)
  Listener* listener_ = nullptr;
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Wired);

}  // namespace fixture
