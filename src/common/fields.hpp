// Field tables for config structs and member tables for components
// (DESIGN.md section 4e).
//
// A config struct lists its members once, after their declarations:
//
//   struct IioConfig {
//     std::uint32_t write_credits = 92;
//     Tick t_to_cha = ns(40);
//     HOSTNET_FIELDS(IioConfig, write_credits, t_to_cha)
//   };
//
// That defines a hidden friend `visit_fields(s, fn)` calling `fn("name",
// s.name)` per member, const or mutable; members are reached by name, so the
// list's order cannot mislabel one. An unused structured binding over the
// same names, in a non-template friend so it is checked where the struct is
// defined, rejects a list that misses a member ("only N names provided for
// structured binding") or repeats one ("redeclaration"). config_fingerprint(),
// the fleet `set` grammar and validate() walk the tables. Every component's
// State carries one too.
//
// A checkpointed component lists every data member the same way, last in
// its class:
//
//   class Iio {
//     ...
//     sim::Simulator& sim_;
//     const IioConfig cfg_;
//     State st_;
//     HOSTNET_COMPONENT(Iio, sim_, cfg_, st_)
//   };
//
// Besides the structured binding, a static_assert per member checks its
// kind. The member is `st_` (all mutable state, one State value with its
// own HOSTNET_FIELDS table), `const` (configuration, derived constants), a
// reference (wiring), or an owned component (by value, unique_ptr or vector
// of unique_ptr), which its owner checkpoints with it. A mutable member of
// any other kind would compile, run and silently escape the checkpoint. A
// base class must hold no data: a structured binding needs every member in
// one class.
//
// The same list generates the checkpoint: a public `Snapshot` with one field
// per member, named after it (st_ holds a State copy, an owned component its
// Snapshot, a vector of them a vector of Snapshots, and every other member
// Nothing), `save_state(Snapshot&) const`, `load_state(const Snapshot&)` and
// a defaulted `Snapshot::operator==`. Members are copied in list order; a
// Snapshot's vectors are reused, so a recycled one allocates nothing once
// warm, and the number of owned children is construction state that
// load_state asserts.
//
// HOSTNET_COMPONENT_EXEMPT(m, ...) names members exempt from the kind check
// (they contribute Nothing); the class says why beside it.
// HOSTNET_COMPONENT_EXEMPT_ALL(T, members...) lists the members for the
// structured binding only: no kind check and no generated checkpoint, for a
// component that writes its own (CalendarQueue's logical queue copy).
// HOSTNET_COMPONENT_INTERFACE(T) marks a data-free polymorphic base that an
// owner holds by unique_ptr; it declares its own Snapshot and a virtual
// save_state/load_state pair.
//
// HOSTNET_COMPONENT also defines `visit_owned(c, fn)`, calling `fn("name",
// member)` for `st_` and each owned component. for_each_reachable() walks
// it, and the State tables, from a root component; HostSystem builds its
// flow::DomainRegistry from every flow::CreditPool it finds.
#pragma once

#include <cassert>
#include <concepts>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

// HOSTNET_FOR_EACH(macro, a, b, ...) expands to macro(a) macro(b) ... (C++20
// __VA_OPT__); HOSTNET_FX3 rescans enough for 80 names.
#define HOSTNET_FX3(...) HOSTNET_FX2(HOSTNET_FX2(HOSTNET_FX2(HOSTNET_FX2(__VA_ARGS__))))
#define HOSTNET_FX2(...) HOSTNET_FX1(HOSTNET_FX1(HOSTNET_FX1(HOSTNET_FX1(__VA_ARGS__))))
#define HOSTNET_FX1(...) HOSTNET_FX0(HOSTNET_FX0(HOSTNET_FX0(HOSTNET_FX0(__VA_ARGS__))))
#define HOSTNET_FX0(...) __VA_ARGS__
#define HOSTNET_FX_PARENS ()
#define HOSTNET_FOR_EACH(macro, ...) __VA_OPT__(HOSTNET_FX3(HOSTNET_FX_EACH(macro, __VA_ARGS__)))
#define HOSTNET_FX_EACH(macro, a, ...) \
  macro(a) __VA_OPT__(HOSTNET_FX_AGAIN HOSTNET_FX_PARENS(macro, __VA_ARGS__))
#define HOSTNET_FX_AGAIN() HOSTNET_FX_EACH

#define HOSTNET_FX_VISIT(f) hostnet_fields_fn_(#f, hostnet_fields_self_.f);

#define HOSTNET_FIELDS(T, ...)                                                    \
  friend void hostnet_fields_arity_check(T& hostnet_fields_self_) {               \
    [[maybe_unused]] auto& [__VA_ARGS__] = hostnet_fields_self_;                  \
  }                                                                               \
  template <class Self, class Fn>                                                 \
    requires std::is_same_v<std::remove_const_t<Self>, T>                         \
  friend void visit_fields(Self& hostnet_fields_self_, Fn&& hostnet_fields_fn_) { \
    HOSTNET_FOR_EACH(HOSTNET_FX_VISIT, __VA_ARGS__)                               \
  }

#define HOSTNET_CX_KIND(m)                                                          \
  static_assert(                                                                    \
      hostnet_component_t_::hostnet_component_exempt_(#m, 0) ||                     \
          ::hostnet::fields::member_kind_ok<decltype(hostnet_component_t_::m)>(#m), \
      "component member '" #m "' must be st_ (the State, with a HOSTNET_FIELDS "   \
      "table), const (configuration), a reference (wiring) or an owned component " \
      "(by value, unique_ptr or vector of unique_ptr)");
#define HOSTNET_CX_OWNED(m)                                                        \
  if constexpr (::hostnet::fields::is_covered_v<decltype(hostnet_component_t_::m)>) \
    hostnet_fields_fn_(#m, hostnet_fields_self_.m);
#define HOSTNET_CX_SNAP(m) \
  [[no_unique_address]] ::hostnet::fields::snapshot_t<decltype(hostnet_component_t_::m)> m;
#define HOSTNET_CX_SAVE(m) ::hostnet::fields::detail::save(m, hostnet_out_.m);
#define HOSTNET_CX_LOAD(m) ::hostnet::fields::detail::load(m, hostnet_in_.m);

#define HOSTNET_COMPONENT(T, ...)                                                  \
  static constexpr bool hostnet_component_exempt_(std::string_view, long) {        \
    return false;                                                                  \
  }                                                                                \
  friend std::type_identity<T> hostnet_component_check(T& hostnet_fields_self_) {  \
    using hostnet_component_t_ = T;                                                \
    [[maybe_unused]] auto& [__VA_ARGS__] = hostnet_fields_self_;                   \
    HOSTNET_FOR_EACH(HOSTNET_CX_KIND, __VA_ARGS__)                                 \
    return {};                                                                     \
  }                                                                                \
  template <class Self, class Fn>                                                  \
    requires std::is_same_v<std::remove_const_t<Self>, T>                          \
  friend void visit_owned([[maybe_unused]] Self& hostnet_fields_self_,            \
                          [[maybe_unused]] Fn&& hostnet_fields_fn_) {              \
    using hostnet_component_t_ = T;                                                \
    HOSTNET_FOR_EACH(HOSTNET_CX_OWNED, __VA_ARGS__)                                \
  }                                                                                \
                                                                                   \
 public:                                                                           \
  struct Snapshot {                                                                \
    using hostnet_component_t_ = T;                                                \
    HOSTNET_FOR_EACH(HOSTNET_CX_SNAP, __VA_ARGS__)                                 \
    bool operator==(const Snapshot&) const = default;                              \
  };                                                                               \
  void save_state(Snapshot& hostnet_out_) const {                                  \
    HOSTNET_FOR_EACH(HOSTNET_CX_SAVE, __VA_ARGS__)                                 \
  }                                                                                \
  void load_state(const Snapshot& hostnet_in_) {                                   \
    HOSTNET_FOR_EACH(HOSTNET_CX_LOAD, __VA_ARGS__)                                 \
  }

#define HOSTNET_CX_NAME_IS(m) hostnet_member_ == #m ||
#define HOSTNET_COMPONENT_EXEMPT(...)                                                   \
  static constexpr bool hostnet_component_exempt_(std::string_view hostnet_member_, int) { \
    return HOSTNET_FOR_EACH(HOSTNET_CX_NAME_IS, __VA_ARGS__) false;                     \
  }

#define HOSTNET_COMPONENT_EXEMPT_ALL(T, ...)                                          \
  friend std::type_identity<T> hostnet_component_check(                               \
      [[maybe_unused]] T& hostnet_fields_self_) {                                     \
    __VA_OPT__([[maybe_unused]] auto& [__VA_ARGS__] = hostnet_fields_self_;)          \
    return {};                                                                        \
  }                                                                                   \
  template <class Self, class Fn>                                                     \
    requires std::is_same_v<std::remove_const_t<Self>, T>                             \
  friend void visit_owned(Self&, Fn&&) {}

#define HOSTNET_COMPONENT_INTERFACE(T)                                          \
  friend std::type_identity<T> hostnet_component_check(T&) {                    \
    static_assert(std::is_polymorphic_v<T> && sizeof(T) == sizeof(void*),       \
                  #T " is a component interface, so it holds no data");         \
    return {};                                                                  \
  }                                                                             \
  template <class Self, class Fn>                                               \
    requires std::is_same_v<std::remove_const_t<Self>, T>                       \
  friend void visit_owned(Self&, Fn&&) {}

namespace hostnet::fields {

/// T declares a field table (HOSTNET_FIELDS).
template <class T>
concept Table = requires(T& t) { hostnet_fields_arity_check(t); };

/// T declares a component table (HOSTNET_COMPONENT or _INTERFACE) itself; a
/// class deriving from a component is not one by inheritance.
template <class T>
concept Component = requires(T& t) {
  { hostnet_component_check(t) } -> std::same_as<std::type_identity<T>>;
};

template <class T>
inline constexpr bool is_optional_v = false;
template <class T>
inline constexpr bool is_optional_v<std::optional<T>> = true;

/// What a member that a checkpoint does not cover (const, a reference, an
/// exempt member) holds in its component's Snapshot.
struct Nothing {
  bool operator==(const Nothing&) const = default;
};

/// The Snapshot field of a member declared as `M`: st_ a copy of its State,
/// an owned component its Snapshot (a vector of them for a vector), anything
/// else Nothing.
template <class M>
struct snapshot_of {
  using type = Nothing;
};
template <class M>
  requires(!std::is_reference_v<M> && Table<M>)
struct snapshot_of<M> {
  using type = M;
};
template <Component M>
struct snapshot_of<M> {
  using type = typename M::Snapshot;
};
template <Component C>
struct snapshot_of<std::unique_ptr<C>> {
  using type = typename C::Snapshot;
};
template <Component C>
struct snapshot_of<std::vector<std::unique_ptr<C>>> {
  using type = std::vector<typename C::Snapshot>;
};
template <class M>
using snapshot_t = typename snapshot_of<M>::type;

/// The members a checkpoint covers: st_ and the owned components.
template <class M>
inline constexpr bool is_covered_v = !std::is_same_v<snapshot_t<M>, Nothing>;

/// The member kinds HOSTNET_COMPONENT accepts; `M` is the declared type.
template <class M>
consteval bool member_kind_ok(std::string_view name) {
  if constexpr (std::is_reference_v<M> || std::is_const_v<M>)
    return name != "st_";
  else if (name == "st_")
    return Table<M>;
  else
    return is_covered_v<M> && !Table<M>;
}

namespace detail {
template <class T>
inline constexpr bool is_vector_v = false;
template <class T>
inline constexpr bool is_vector_v<std::vector<T>> = true;

/// HOSTNET_COMPONENT's save_state for one member: `out` is its Snapshot field.
template <class M, class S>
void save(const M& m, S& out) {
  if constexpr (std::is_same_v<S, Nothing>) {
  } else if constexpr (Table<M>) {
    out = m;
  } else if constexpr (Component<M>) {
    m.save_state(out);
  } else if constexpr (is_vector_v<M>) {
    out.resize(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) m[i]->save_state(out[i]);
  } else {
    m->save_state(out);
  }
}

/// HOSTNET_COMPONENT's load_state for one member.
template <class M, class S>
void load(M& m, const S& s) {
  if constexpr (std::is_same_v<S, Nothing>) {
  } else if constexpr (Table<M>) {
    m = s;
  } else if constexpr (Component<M>) {
    m.load_state(s);
  } else if constexpr (is_vector_v<M>) {
    assert(s.size() == m.size() && "the number of owned components is construction state");
    for (std::size_t i = 0; i < m.size(); ++i) m[i]->load_state(s[i]);
  } else {
    m->load_state(s);
  }
}
}  // namespace detail

/// A member that stamps its component's Snapshot with the object that saved
/// it. Event closures and waiters in a snapshot point into that object, so
/// loading the snapshot into any other throws std::logic_error; listed first
/// in its component's table, it throws before anything is loaded. Equality
/// ignores the stamp.
class OwnerToken {
 public:
  struct Snapshot {
    const void* owner = nullptr;
    bool operator==(const Snapshot&) const { return true; }
  };
  void save_state(Snapshot& out) const { out.owner = this; }
  void load_state(const Snapshot& s) const {
    if (s.owner != this)
      throw std::logic_error(
          "snapshot restored into an object that did not save it (a snapshot "
          "holds pointers into the object that saved it)");
  }
  HOSTNET_COMPONENT_EXEMPT_ALL(OwnerToken)
};

namespace detail {
template <class T, class Fn>
void walk(T& v, std::string& path, Fn& fn) {
  using U = std::remove_const_t<T>;
  if constexpr (Table<U>) {
    const std::size_t len = path.size();
    visit_fields(v, [&](const char* name, auto& member) {
      path.append(len > 0 ? "." : "").append(name);
      walk(member, path, fn);
      path.resize(len);
    });
  } else if constexpr (is_optional_v<U>) {
    if (v) walk(*v, path, fn);
  } else {
    static_assert(std::is_arithmetic_v<U> || std::is_enum_v<U> || std::is_same_v<U, std::string>,
                  "a nested struct needs its own HOSTNET_FIELDS table");
    fn(std::as_const(path), v);
  }
}

template <class X, class T>
inline constexpr bool may_reach_v = std::is_same_v<T, X> || Component<T> || Table<T>;
template <class X, class T>
inline constexpr bool may_reach_v<X, std::unique_ptr<T>> = may_reach_v<X, T>;

template <class X, class T, class Fn>
void reach(T& v, std::string& path, Fn& fn) {
  using U = std::remove_const_t<T>;
  const std::size_t len = path.size();
  const auto step = [&](const char* name, auto& member) {
    path.append(len > 0 ? "." : "").append(name);
    reach<X>(member, path, fn);
    path.resize(len);
  };
  if constexpr (std::is_same_v<U, X>) {
    fn(std::as_const(path), v);
  } else if constexpr (Component<U>) {
    visit_owned(v, step);
  } else if constexpr (Table<U>) {
    visit_fields(v, step);
  } else if constexpr (may_reach_v<X, U>) {  // a unique_ptr
    if (v) reach<X>(*v, path, fn);
  } else if constexpr (is_vector_v<U>) {
    if constexpr (may_reach_v<X, typename U::value_type>) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        path.append("[").append(std::to_string(i)).append("]");
        reach<X>(v[i], path, fn);
        path.resize(len);
      }
    }
  }
}
}  // namespace detail

/// Calls `fn(path, leaf)` for every leaf of `s` in table order; `path` is
/// the leaf's dotted name (`mc.timing.t_trans`). Recurses into nested
/// tables and engaged optionals.
template <class T, class Fn>
void for_each_leaf(T& s, Fn&& fn) {
  std::string path;
  detail::walk(s, path, fn);
}

/// Calls `fn(path, x)` for every X reachable from the component `root`
/// through owned components (visit_owned), the field tables of their States
/// and vectors of either; `path` names it (`mc_.channels_[0].st_.rpq_pool`).
template <class X, class T, class Fn>
void for_each_reachable(T& root, Fn&& fn) {
  std::string path;
  detail::reach<X>(root, path, fn);
}

}  // namespace hostnet::fields
