// Snapshot descriptors for the checkpoint/fork layer (DESIGN.md section 4e).
//
// A checkpointable component keeps all of its mutable state in one `State`
// aggregate member, `st_`. Everything else it holds is construction state:
// `const` config and derived constants, references (wiring), or owned
// sub-components that are themselves checkpointed. A leaf component then
// checkpoints by copying that one value:
//
//   using Snapshot = State;
//   void save_state(Snapshot& out) const { out = st_; }
//   void load_state(const Snapshot& s) { st_ = s; }
//
// and a composite copies its own State and calls its children. A new
// mutable member therefore has one place to go; left outside State it would
// compile, run and silently escape checkpointing.
//
// HOSTNET_SNAPSHOT_COVERS(T) marks T as a checkpointable component and
// static_asserts the contract: T must expose a nested `Snapshot` type and a
// `void save_state(Snapshot&) const`. tools/hostnet_audit.py's
// snapshot-state rule checks the layout above for every class carrying the
// descriptor: each non-static data member is `st_`, const, a reference, or
// an owned checkpointed child. hostnet-lint's `snapshot-coverage` rule
// enforces that every class declaring save_state() carries a descriptor, so
// a new component cannot opt out of the audit by accident.
#pragma once

#include <type_traits>
#include <utility>

namespace hostnet::snapshot_detail {

template <typename T, typename = void>
struct has_snapshot_contract : std::false_type {};

template <typename T>
struct has_snapshot_contract<
    T, std::void_t<typename T::Snapshot,
                   decltype(std::declval<const T&>().save_state(
                       std::declval<typename T::Snapshot&>()))>>
    : std::true_type {};

}  // namespace hostnet::snapshot_detail

#define HOSTNET_SNAPSHOT_COVERS(T)                                                \
  static_assert(::hostnet::snapshot_detail::has_snapshot_contract<T>::value,      \
                #T " does not satisfy the snapshot contract: it needs a nested "  \
                   "Snapshot struct and 'void save_state(Snapshot&) const' "      \
                   "(restored via load_state() or, at the composition root, "     \
                   "restore()). See DESIGN.md 4e and tools/hostnet_audit.py")
