// Deliberately-bad fixture for the raw-credit-counter check: four ad-hoc
// integral pools in a flow-controlled subsystem (path says src/cpu), each of
// which should be a flow::CreditPool.
#include <cstdint>

struct BadLfb {
  void issue() { ++in_use_; }
  void complete() { --in_use_; }

  std::uint32_t in_use_ = 0;        // finding 1: *_in_use_
  unsigned inflight_ = 0;           // finding 2: *inflight_
  std::uint64_t tracker_used_ = 0;  // finding 3: *_used_

  struct State {
    std::uint32_t wpq_in_use = 0;  // finding 4: a State field's bare name
  };
};

int main() { return 0; }
