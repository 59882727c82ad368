// Must not compile: `child_` is owned, but its class has no component
// table, so nothing says how (or whether) it is checkpointed.
#include <cstdint>
#include <memory>

#include "common/fields.hpp"

struct Plain {
  std::uint64_t n = 0;
};

class Component {
 public:
  struct State {
    std::uint64_t n = 0;
    HOSTNET_FIELDS(State, n)
  };

 private:
  std::unique_ptr<Plain> child_;
  State st_;
  HOSTNET_COMPONENT(Component, child_, st_)
};
