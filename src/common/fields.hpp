// Field tables for config structs (DESIGN.md section 4e). A struct lists its
// members once, after their declarations:
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
// the fleet `set` grammar and validate() walk the tables.
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

// FOR_EACH over the names (C++20 __VA_OPT__); HOSTNET_FX3 rescans for 80.
#define HOSTNET_FX3(...) HOSTNET_FX2(HOSTNET_FX2(HOSTNET_FX2(HOSTNET_FX2(__VA_ARGS__))))
#define HOSTNET_FX2(...) HOSTNET_FX1(HOSTNET_FX1(HOSTNET_FX1(HOSTNET_FX1(__VA_ARGS__))))
#define HOSTNET_FX1(...) HOSTNET_FX0(HOSTNET_FX0(HOSTNET_FX0(HOSTNET_FX0(__VA_ARGS__))))
#define HOSTNET_FX0(...) __VA_ARGS__
#define HOSTNET_FX_PARENS ()
#define HOSTNET_FX_VISIT(f, ...)                  \
  hostnet_fields_fn_(#f, hostnet_fields_self_.f); \
  __VA_OPT__(HOSTNET_FX_AGAIN HOSTNET_FX_PARENS(__VA_ARGS__))
#define HOSTNET_FX_AGAIN() HOSTNET_FX_VISIT

#define HOSTNET_FIELDS(T, ...)                                                    \
  friend void hostnet_fields_arity_check(T& hostnet_fields_self_) {               \
    [[maybe_unused]] auto& [__VA_ARGS__] = hostnet_fields_self_;                  \
  }                                                                               \
  template <class Self, class Fn>                                                 \
    requires std::is_same_v<std::remove_const_t<Self>, T>                         \
  friend void visit_fields(Self& hostnet_fields_self_, Fn&& hostnet_fields_fn_) { \
    HOSTNET_FX3(HOSTNET_FX_VISIT(__VA_ARGS__))                                    \
  }

namespace hostnet::fields {

/// T declares a field table (HOSTNET_FIELDS).
template <class T>
concept Table = requires(T& t) { hostnet_fields_arity_check(t); };

template <class T>
inline constexpr bool is_optional_v = false;
template <class T>
inline constexpr bool is_optional_v<std::optional<T>> = true;

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
}  // namespace detail

/// Calls `fn(path, leaf)` for every leaf of `s` in table order; `path` is
/// the leaf's dotted name (`mc.timing.t_trans`). Recurses into nested
/// tables and engaged optionals.
template <class T, class Fn>
void for_each_leaf(T& s, Fn&& fn) {
  std::string path;
  detail::walk(s, path, fn);
}

}  // namespace hostnet::fields
