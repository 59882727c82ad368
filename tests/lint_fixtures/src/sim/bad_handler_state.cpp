// Bad fixture (handler purity): this file's path puts it in a handler
// subsystem (src/sim), where hidden mutable state breaks checkpoint/fork
// determinism -- a forked host would share or diverge on it.
//   * two handler-global-state findings (namespace-scope mutable variables,
//     one a pointer to const: the pointer itself is mutable)
//   * two handler-static-state findings (function-local static counters)
#include <cstdint>

namespace fixture {

std::uint64_t g_event_count = 0;  // finding: handler-global-state
const char* g_last_name{};        // finding: handler-global-state

inline std::uint64_t next_id() {
  static std::uint64_t counter = 0;  // finding: handler-static-state
  return ++counter;
}

struct Port {
  void send() {
    thread_local int sent = 0;  // finding: handler-static-state
    ++sent;
  }
};

}  // namespace fixture
