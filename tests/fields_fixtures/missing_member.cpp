// Must not compile: `flag` is declared but missing from the table
// ("only 2 names provided for structured binding").
#include <cstdint>

#include "common/fields.hpp"

struct Fixture {
  std::uint32_t credits = 4;
  double rate = 1.0;
  bool flag = false;
  HOSTNET_FIELDS(Fixture, credits, rate)
};
