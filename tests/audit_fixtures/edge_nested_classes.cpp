// Edge fixture: nested class definitions inside a checkpointed class. The
// nested types' fields belong to the nested scopes -- the State fields and
// the plain Entry struct's fields must not be attributed to the outer
// class -- and a nested checkpointed class is audited on its own and may be
// owned by value. No findings.
#include <cstdint>

namespace fixture {

class Outer {
 public:
  class Inner {
   public:
    struct State {
      std::uint32_t depth = 0;
    };
    using Snapshot = State;
    void save_state(Snapshot& out) const { out = st_; }
    void load_state(const Snapshot& s) { st_ = s; }

   private:
    State st_;
  };

  /// A nested plain struct (not checkpointed): its fields are not Outer members.
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
  };

  struct State {
    std::uint64_t epoch = 0;
    Entry last;
  };
  struct Snapshot {
    State st;
    Inner::Snapshot inner;
  };

  void save_state(Snapshot& out) const {
    out.st = st_;
    inner_.save_state(out.inner);
  }

 private:
  Inner inner_;
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Outer);
HOSTNET_SNAPSHOT_COVERS(Inner);

}  // namespace fixture
