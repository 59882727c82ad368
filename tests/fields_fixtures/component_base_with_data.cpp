// Must not compile: the base class holds data, so no structured binding
// can name every member ("both it and its base class have non-static data
// members"). Component bases hold none.
#include <cstdint>

#include "common/fields.hpp"

struct Base {
  virtual ~Base() = default;
  std::uint64_t wakeups = 0;
};

class Component final : public Base {
 public:
  struct State {
    std::uint64_t n = 0;
    HOSTNET_FIELDS(State, n)
  };

 private:
  State st_;
  HOSTNET_COMPONENT(Component, st_)
};
