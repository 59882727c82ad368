// Fixture: this file's path puts it in a hot-path subsystem (src/mc), so
// bit-counting builtins that compile to a libgcc call must be flagged.
#include <bit>
#include <cstdint>

unsigned free_banks(std::uint64_t waiting, std::uint64_t owned) {
  return static_cast<unsigned>(std::popcount(waiting & ~owned));  // finding: hot-libcall
}

int set_bits(unsigned x) { return __builtin_popcount(x); }  // finding: hot-libcall

int set_bits_wide(unsigned long long x) {
  return __builtin_popcountll(x);  // finding: hot-libcall
}
