// Clean fixture (handler purity): immutable data, static member functions
// and declarations are not state, even in a handler subsystem (src/sim).
#include <cstdint>

namespace fixture {

constexpr std::uint64_t kLimit = 64;
const std::uint64_t kBias = 7;
const char* const kName = "fixture";
inline constexpr int kTable[] = {1, 2, 3};

std::uint64_t lookup(std::uint64_t key, double scale = 1.0);

inline std::uint64_t bias() {
  static const std::uint64_t kLocal = 7;
  static constexpr std::uint64_t kOther = 8;
  return kLocal + kOther;
}

struct Ops {
  static void invoke(void* s) { (void)s; }
  static constexpr int kSlots = 4;
  static std::uint64_t count(std::uint64_t n) noexcept { return n; }
};

class Component {
 public:
  struct State {
    std::uint64_t n = 0;
  };

 private:
  State st_{};
};

}  // namespace fixture
