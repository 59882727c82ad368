// Must not compile: `probe_` is declared but missing from the table
// ("only 2 names provided for structured binding").
#include <cstdint>

#include "common/fields.hpp"

class Component {
 public:
  struct State {
    std::uint64_t n = 0;
    HOSTNET_FIELDS(State, n)
  };

 private:
  const std::uint32_t id_ = 0;
  State st_;
  std::uint64_t probe_ = 0;
  HOSTNET_COMPONENT(Component, id_, st_)
};
