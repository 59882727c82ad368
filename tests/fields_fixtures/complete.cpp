// Compiles: every member is in the table. The twin of missing_member.cpp
// and duplicate_member.cpp, so those cannot fail for an unrelated reason.
#include <cstdint>

#include "common/fields.hpp"

struct Fixture {
  std::uint32_t credits = 4;
  double rate = 1.0;
  bool flag = false;
  HOSTNET_FIELDS(Fixture, credits, rate, flag)
};

int count_fields() {
  Fixture f;
  int n = 0;
  visit_fields(f, [&n](const char*, auto&) { ++n; });
  return n;
}
