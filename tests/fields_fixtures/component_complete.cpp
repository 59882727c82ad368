// Compiles: every member of each kind HOSTNET_COMPONENT accepts, plus an
// exempt one, and the checkpoint the table generates for them. The twin of
// the must-not-compile fixtures beside it, so those cannot fail for an
// unrelated reason.
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/fields.hpp"

struct Config {
  std::uint32_t credits = 4;
};

class Child {
 public:
  struct State {
    std::uint64_t n = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, n)
  };

 private:
  State st_;
  HOSTNET_COMPONENT(Child, st_)
};

class Interface {
 public:
  virtual ~Interface() = default;
  struct Snapshot {
    Child::State st;
    bool operator==(const Snapshot&) const = default;
  };
  virtual void save_state(Snapshot& out) const = 0;
  virtual void load_state(const Snapshot& s) = 0;
  HOSTNET_COMPONENT_INTERFACE(Interface)
};

class Leaf final : public Interface {
 public:
  void save_state(Interface::Snapshot& out) const override { out.st = st_; }
  void load_state(const Interface::Snapshot& s) override { st_ = s.st; }

 private:
  const double gain_ = 0.5;
  Child::State st_;
  HOSTNET_COMPONENT_EXEMPT_ALL(Leaf, gain_, st_)
};

class Parent {
 public:
  struct State {
    std::uint64_t level = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, level)
  };

  Parent(Config& shared, Child* peer) : shared_(shared), peer_(peer) {}

 private:
  const Config cfg_;
  Config& shared_;
  Child* const peer_;
  Child child_;
  std::unique_ptr<Child> owned_;
  std::vector<std::unique_ptr<Child>> children_;
  std::unique_ptr<Interface> stack_;
  int* wiring_;
  State st_;
  // wiring_ is attached once, after construction.
  HOSTNET_COMPONENT_EXEMPT(wiring_)
  HOSTNET_COMPONENT(Parent, cfg_, shared_, peer_, child_, owned_, children_, stack_, wiring_, st_)
};

static_assert(hostnet::fields::Component<Parent>);
static_assert(hostnet::fields::Component<Interface>);
static_assert(hostnet::fields::Component<Leaf>);

// The generated Snapshot: a State copy for st_, each owned component's
// Snapshot, and Nothing for everything else.
template <class F, class T>
constexpr bool field_is = std::is_same_v<F, T>;
using S = Parent::Snapshot;
static_assert(field_is<decltype(S::st_), Parent::State>);
static_assert(field_is<decltype(S::child_), Child::Snapshot>);
static_assert(field_is<decltype(S::owned_), Child::Snapshot>);
static_assert(field_is<decltype(S::children_), std::vector<Child::Snapshot>>);
static_assert(field_is<decltype(S::stack_), Interface::Snapshot>);
static_assert(field_is<decltype(S::cfg_), hostnet::fields::Nothing>);
static_assert(field_is<decltype(S::shared_), hostnet::fields::Nothing>);
static_assert(field_is<decltype(S::peer_), hostnet::fields::Nothing>);
static_assert(field_is<decltype(S::wiring_), hostnet::fields::Nothing>);

bool round_trip(const Parent& a, Parent& b) {
  S s;
  a.save_state(s);
  b.load_state(s);
  S t;
  b.save_state(t);
  return s == t;
}
