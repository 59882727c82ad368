// Allocation-free event callable for the simulation kernel.
//
// Event is a type-erased void() callable like std::function, but its closure
// always lives in an inline 64-byte buffer. The largest closures on the
// schedule/fire path capture [this, Request, Tick] (64 bytes: an 8-byte
// object pointer plus the 48-byte mem::Request plus a Tick), so
// kInlineBytes = 64 holds every event in src/.
//
// A closure must also be trivially copyable: an Event is then itself
// trivially copyable, a copy is a raw 64-byte memcpy with no indirect call,
// destruction is free, and a queue snapshot copies pending closures byte for
// byte. The compiler enforces both (emplace()'s static_asserts), so an
// owning capture (a std::vector, a std::shared_ptr, a std::function) or a
// larger closure does not compile; capture a pointer or an index instead.
// The kernel never moves a scheduled event: the calendar queue emplace()s the
// closure straight into a pooled node and fires it there (DESIGN.md section
// 4a).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hostnet::sim {

class Event {
 public:
  /// Closure capacity: every closure is at most this size (and max_align_t
  /// alignment) and is stored in place.
  static constexpr std::size_t kInlineBytes = 64;

  Event() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Event> && std::is_invocable_v<D&>>>
  Event(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(fn));
  }

  /// Construct `fn` in place, replacing the current callable (if any; a
  /// closure needs no destruction) -- the calendar queue's construct-once
  /// path.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    static_assert(!std::is_same_v<D, Event>, "emplace the closure itself, not an Event");
    static_assert(sizeof(D) <= kInlineBytes,
                  "event closure exceeds the inline event buffer (64 bytes)");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned closure cannot use the inline event buffer");
    static_assert(std::is_trivially_copyable_v<D>,
                  "event closures must be trivially copyable (copied by memcpy)");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    invoke_ = &invoke<D>;
    audit_bytes_ = std::has_unique_object_representations_v<D> ? sizeof(D) : 0;
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Checkpoint equality: same closure type and, where that is well-defined,
  /// identical closure bytes. The byte comparison covers exactly
  /// audit_bytes: the tail of the buffer past the closure is never written,
  /// and a closure with padding holes copies indeterminate source-stack
  /// bytes into them, so comparing either would make equality depend on
  /// memory-layout history rather than simulation state. Padded closures
  /// therefore compare by type only. The type is identified by its
  /// invoke<D> instantiation (distinct functions have distinct addresses),
  /// and audit_bytes_ follows from it.
  bool operator==(const Event& o) const noexcept {
    if (invoke_ != o.invoke_) return false;
    return std::memcmp(storage_, o.storage_, audit_bytes_) == 0;
  }

 private:
  // The tree's one reinterpret_cast (audited in DESIGN.md section 4c). It is
  // well-defined because every call site upholds three preconditions:
  //  (1) identity: `s` is storage_ of an Event whose emplace()
  //      placement-new'ed exactly a D there -- invoke_ and D are selected
  //      together, so type confusion would require corrupting invoke_;
  //  (2) alignment: storage_ is alignas(max_align_t) and emplace() rejects
  //      alignof(D) > max_align_t, so the cast pointer is aligned;
  //  (3) lifetime: the object's lifetime was started by placement new and,
  //      for copied Events, the memcpy of a trivially copyable D preserves it.
  // std::launder is still required: storage_ is reused across different
  // closure types over the Event's life, and without it the compiler may
  // fold loads from the previous occupant. std::bit_cast is not applicable
  // (it copies values; this must alias in place), and a memcpy into a local
  // would defeat the zero-copy invoke path.
  template <typename D>
  static D* as(void* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }

  template <typename D>
  static void invoke(void* s) {
    (*as<D>(s))();
  }

  // The dispatch pointer sits beside the closure, so firing an event is one
  // load and one indirect call.
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void* self) = nullptr;
  /// Bytes operator== may memcmp: sizeof(D) when the closure's object
  /// representation is unique (no padding holes, so every byte is
  /// determined by the captured values), 0 otherwise (and for an empty
  /// Event).
  std::uint8_t audit_bytes_ = 0;
};

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) == Event::kInlineBytes + alignof(std::max_align_t),
              "the invoke pointer and audit byte count share one alignment unit");

}  // namespace hostnet::sim
