// Fixture: src/net hot-path code uses RingBuffer for the packet queues and
// vectors for arenas; one-time callback wiring is justified with an allow().
#include <cstdint>
#include <functional>
#include <vector>

struct Packet {
  long long arrival;
};

// Members, not globals: src/net is also a handler subsystem.
struct Nic {
  std::vector<Packet> arena;
  // Assigned once at construction, invoked (not created) per packet.
  // hostnet-lint: allow(hot-alloc)
  std::function<void(long long)> packet_delivered;
};
