// Fixture: the hot-path way to visit set bits, with no bit-counting builtin.
// Mentions of std::popcount in comments and "std::popcount" in strings are
// not calls.
#include <bit>
#include <cstdint>

constexpr const char* kNote = "std::popcount(x) is a libgcc call without POPCNT";

template <typename F>
void for_each_free_bank(std::uint64_t waiting, std::uint64_t owned, F&& f) {
  for (std::uint64_t free = waiting & ~owned; free != 0; free &= free - 1)
    f(static_cast<unsigned>(std::countr_zero(free)));
}

unsigned count_free_banks(std::uint64_t waiting, std::uint64_t owned) {
  unsigned n = 0;
  for_each_free_bank(waiting, owned, [&n](unsigned) { ++n; });
  return n;
}
