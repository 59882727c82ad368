// Checked-invariant build mode (DESIGN.md section 4c).
//
// hostnet-lint (tools/hostnet_lint.py) proves determinism and allocation
// discipline statically, but the accounting invariants the analytical
// formula rests on -- credit conservation, request conservation, event-time
// monotonicity, arena occupancy -- live at runtime seams the lint cannot
// see. HOSTNET_INVARIANT() checks them in builds configured with
// -DHOSTNET_CHECKED=ON (CMake adds -DHOSTNET_CHECKED=1 to every TU) and
// compiles to nothing otherwise: the release hot path must stay byte-for-
// byte identical, which scripts/ci_static_analysis.sh proves by holding
// BM_HostSimulation within 10% of the committed baseline.
//
// Unlike assert(), HOSTNET_INVARIANT survives NDEBUG: checked builds are
// regular RelWithDebInfo builds plus the invariant instrumentation, so the
// full tier-1 suite runs at realistic speed with every seam audited.
//
// The condition expression is NOT evaluated in unchecked builds. State that
// exists only to feed invariants (conservation ledgers) should live in a
// CreditLedger, whose unchecked variant is an empty shell that optimizes
// away entirely.
#pragma once

#ifndef HOSTNET_CHECKED
#define HOSTNET_CHECKED 0
#endif

#if HOSTNET_CHECKED

#include <cstdint>
#include <cstdio>
#include <cstdlib>

/// Abort with a diagnostic when `cond` is false. `...` is a printf-style
/// message (format string first) naming the conserved quantity and the
/// observed values -- death tests match on "HOSTNET_INVARIANT".
#define HOSTNET_INVARIANT(cond, ...)                                          \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "HOSTNET_INVARIANT failed: %s\n  at %s:%d\n  ",    \
                   #cond, __FILE__, __LINE__);                                \
      std::fprintf(stderr, __VA_ARGS__);                                      \
      std::fputc('\n', stderr);                                               \
      std::abort();                                                           \
    }                                                                         \
  } while (0)

namespace hostnet {

/// Double-entry bookkeeping for a credit/request pool. Components keep their
/// own in-use counters on the hot path; the ledger independently counts
/// acquire/release transitions, and verify() cross-checks the two at quiesce
/// points (HostSystem::reset_counters / collect, i.e. between events). A
/// leaked or double-released credit makes the two accounts disagree even
/// when the component's own counter still looks plausible.
class CreditLedger {
 public:
  /// `capacity` of 0 means unbounded (pure conservation, no cap check).
  void set_capacity(std::uint64_t capacity) { capacity_ = capacity; }

  void acquire() { ++acquired_; }
  void release() { ++released_; }

  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t released() const { return released_; }
  std::uint64_t outstanding() const { return acquired_ - released_; }
  bool operator==(const CreditLedger&) const = default;

  /// Conservation at a quiesce point: every acquired credit was either
  /// released or is still held (`in_use`, the component's own counter), and
  /// holdings never exceed the pool capacity.
  void verify(std::uint64_t in_use, const char* pool) const {
    HOSTNET_INVARIANT(released_ <= acquired_,
                      "%s: released %llu credits but only %llu were acquired "
                      "(double release)",
                      pool, static_cast<unsigned long long>(released_),
                      static_cast<unsigned long long>(acquired_));
    HOSTNET_INVARIANT(outstanding() == in_use,
                      "%s: ledger holds %llu credits outstanding but the pool "
                      "counter says %llu (acquired=%llu released=%llu): a credit "
                      "was leaked or double-released",
                      pool, static_cast<unsigned long long>(outstanding()),
                      static_cast<unsigned long long>(in_use),
                      static_cast<unsigned long long>(acquired_),
                      static_cast<unsigned long long>(released_));
    HOSTNET_INVARIANT(capacity_ == 0 || outstanding() <= capacity_,
                      "%s: %llu credits outstanding exceeds capacity %llu",
                      pool, static_cast<unsigned long long>(outstanding()),
                      static_cast<unsigned long long>(capacity_));
  }

 private:
  std::uint64_t capacity_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t released_ = 0;
};

}  // namespace hostnet

#else  // !HOSTNET_CHECKED

/// Compiled out entirely: the condition and message are never evaluated, so
/// invariants are free to reference checked-only state guarded elsewhere.
#define HOSTNET_INVARIANT(cond, ...) \
  do {                               \
  } while (0)

namespace hostnet {

/// Empty shell: every member is an inline no-op, so ledger updates on the
/// hot path vanish in unchecked builds (the perf gate in
/// scripts/ci_static_analysis.sh proves it).
class CreditLedger {
 public:
  void set_capacity(unsigned long long) {}
  void acquire() {}
  void release() {}
  unsigned long long acquired() const { return 0; }
  unsigned long long released() const { return 0; }
  unsigned long long outstanding() const { return 0; }
  bool operator==(const CreditLedger&) const = default;
  void verify(unsigned long long, const char*) const {}
};

}  // namespace hostnet

#endif  // HOSTNET_CHECKED
