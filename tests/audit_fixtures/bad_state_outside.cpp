// Bad fixture: mutable members of a checkpointed class outside its State ->
// three snapshot-state findings. A plain counter, a pointer to const (the
// pointee is const, the pointer is not) and a raw pointer to a checkpointed
// class (not owned, so its owner never saves it through this class) would
// all silently escape checkpointing.
#include <cstdint>

namespace fixture {

class Child {
 public:
  struct State {
    std::uint64_t n = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }

 private:
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Child);

class Leaky {
 public:
  struct State {
    std::uint64_t level = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

 private:
  const LeakyConfig cfg_;
  State st_;
  std::uint64_t probe_ = 0;  // finding 1: mutable, outside State
  const Child* peer_ = nullptr;  // finding 2: the pointer itself is mutable
  Child* borrowed_;          // finding 3: not an owning pointer
};
HOSTNET_SNAPSHOT_COVERS(Leaky);

}  // namespace fixture
