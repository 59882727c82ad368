// Edge fixture: members with comma-carrying template types, a template
// member function, and constexpr class constants. The member extractor must
// find `rows_` and `st_` (and only them); the template function and the
// constants are not instance state. No findings.
#include <cstdint>
#include <utility>
#include <vector>

namespace fixture {

class Table {
 public:
  struct State {
    RingBuffer<std::uint32_t> order;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& r : rows_) fn(r);
  }

 private:
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> rows_;
  State st_;
  static constexpr std::size_t kWays = 4;      // constexpr: not state
  static const std::uint64_t kMask = 0xffffu;  // static: not instance state
};
HOSTNET_SNAPSHOT_COVERS(Table);

}  // namespace fixture
