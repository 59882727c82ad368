// Must not compile: `peer_` is listed, but it is mutable state outside st_
// (the pointee is const, the pointer is not), so a checkpoint would
// silently drop it.
#include <cstdint>

#include "common/fields.hpp"

class Component {
 public:
  struct State {
    std::uint64_t n = 0;
    HOSTNET_FIELDS(State, n)
  };

 private:
  State st_;
  const State* peer_ = nullptr;
  HOSTNET_COMPONENT(Component, st_, peer_)
};
