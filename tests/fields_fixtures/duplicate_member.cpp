// Must not compile: `rate` is listed twice and `flag` not at all
// ("redeclaration" of a structured binding).
#include <cstdint>

#include "common/fields.hpp"

struct Fixture {
  std::uint32_t credits = 4;
  double rate = 1.0;
  bool flag = false;
  HOSTNET_FIELDS(Fixture, credits, rate, rate)
};
