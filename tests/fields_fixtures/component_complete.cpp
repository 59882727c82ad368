// Compiles: every member of each kind HOSTNET_COMPONENT accepts, plus an
// exempt one. The twin of the must-not-compile fixtures beside it, so those
// cannot fail for an unrelated reason.
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.hpp"

struct Config {
  std::uint32_t credits = 4;
};

class Child {
 public:
  struct State {
    std::uint64_t n = 0;
    HOSTNET_FIELDS(State, n)
  };

 private:
  State st_;
  HOSTNET_COMPONENT(Child, st_)
};

class Interface {
 public:
  virtual ~Interface() = default;
  HOSTNET_COMPONENT_INTERFACE(Interface)
};

class Leaf final : public Interface {
  const double gain_ = 0.5;
  Child::State st_;
  HOSTNET_COMPONENT(Leaf, gain_, st_)
};

class Parent {
 public:
  struct State {
    std::uint64_t level = 0;
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
