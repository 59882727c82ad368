// Allocation-free event callable for the simulation kernel.
//
// Event is a move-only, type-erased void() callable like std::function, but
// with an inline buffer sized for the simulator's hot-path closures. The
// largest closures on the schedule/fire path capture [this, Request, Tick]
// (64 bytes: an 8-byte object pointer plus the 48-byte mem::Request plus a
// Tick), so kInlineBytes = 64 keeps every event in src/cpu, src/cha,
// src/mc, src/iio and src/net out of the allocator.
//
// Inline storage additionally requires the callable to be trivially
// copyable, so a moved Event is a raw 64-byte memcpy with no indirect call
// and destruction is free. The kernel never moves a scheduled event: the
// calendar queue emplace()s the closure straight into a pooled node and
// fires it there (DESIGN.md section 4a). Hot-path closures capture only
// pointers, Requests and Ticks and are all trivially copyable; anything
// else (owning captures, large or over-aligned callables) transparently
// falls back to the heap, where the stored pointer is itself trivially
// copyable and the same memcpy move applies.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hostnet::sim {

class Event {
 public:
  /// Inline capture capacity; trivially-copyable closures up to this size
  /// (and max_align_t alignment) are stored in place.
  static constexpr std::size_t kInlineBytes = 64;

  Event() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Event> && std::is_invocable_v<D&>>>
  Event(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(fn));
  }

  /// Destroy the current callable (if any) and construct `fn` in place --
  /// the calendar queue's construct-once path.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    static_assert(!std::is_same_v<D, Event>, "emplace the closure itself, not an Event");
    reset();
    if constexpr (fits_inline<D>()) {
      // The three properties the inline representation relies on, spelled
      // out (fits_inline() implies them; restated so a change there cannot
      // silently weaken the contract): the closure must fit the buffer,
      // must not be over-aligned for it, and must tolerate the memcpy-based
      // move in move_from().
      static_assert(sizeof(D) <= kInlineBytes, "closure exceeds the inline event buffer");
      static_assert(alignof(D) <= alignof(std::max_align_t),
                    "over-aligned closure cannot use the inline event buffer");
      static_assert(std::is_trivially_copyable_v<D>,
                    "inline event closures must be trivially copyable (moved by memcpy)");
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::ops;
    } else {
      // Cold fallback for owning/large/over-aligned callables (setup and
      // control paths only); every steady-state closure takes the inline
      // branch above, as enforced by the static_asserts at the hot-path
      // call sites. The stored representation is a plain D*, which is
      // itself trivially copyable, so the same memcpy move applies.
      static_assert(std::is_trivially_copyable_v<D*>);
      // hostnet-lint: allow(hot-alloc)
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  Event(Event&& other) noexcept { move_from(other); }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable lives in the inline buffer (no heap allocation).
  /// Exposed for the allocation-probe benchmarks and tests.
  bool inlined() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

  /// Duplicate the event for checkpointing (calendar-queue save_state).
  /// Inline events are a raw 64-byte copy -- same cost as a move; heap
  /// events copy-construct the boxed callable. Only clonable() events may
  /// be cloned: a move-only heap closure cannot be checkpointed, and the
  /// snapshot layer rejects it instead of silently dropping it.
  bool clonable() const noexcept {
    return ops_ == nullptr || ops_->inline_storage || ops_->clone != nullptr;
  }
  Event clone() const {
    Event c;
    if (ops_ == nullptr) return c;
    if (ops_->inline_storage) {
      std::memcpy(c.storage_, storage_, kInlineBytes);
    } else {
      assert(ops_->clone && "cannot snapshot a move-only heap event closure");
      ops_->clone(c.storage_, storage_);
    }
    c.ops_ = ops_;
    return c;
  }

  /// Checkpoint-audit equality (HOSTNET_CHECKED restore audits): same ops
  /// table and, where that is well-defined, identical closure bytes. The
  /// byte comparison covers exactly audit_bytes: the tail of the inline
  /// buffer past the closure is never written, and a closure with padding
  /// holes copies indeterminate source-stack bytes into them (a trivially
  /// copyable lambda is cloned bytewise), so comparing either would make
  /// the audit depend on memory-layout history rather than simulation
  /// state. Heap events and padded closures therefore compare by ops table
  /// (i.e. closure type) only.
  bool audit_identical(const Event& o) const noexcept {
    if (ops_ != o.ops_) return false;
    if (ops_ == nullptr) return true;
    return std::memcmp(storage_, o.storage_, ops_->audit_bytes) == 0;
  }

  void reset() noexcept {
    if (ops_) {
      if (ops_->destroy) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*destroy)(void* self) noexcept;  ///< nullptr when no cleanup is needed
    /// Copy the stored representation of `src` into `dst` (heap events
    /// only; inline events clone by memcpy with no indirect call). nullptr
    /// for move-only heap closures, which cannot be checkpointed.
    void (*clone)(void* dst, const void* src);
    bool inline_storage;
    /// Bytes audit_identical() may memcmp: sizeof(D) for inline closures
    /// whose object representation is unique (no padding holes, so every
    /// byte is determined by the captured values), 0 otherwise (heap boxes
    /// and padded closures, whose bytes are not state-determined).
    std::size_t audit_bytes;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    // Trivial copyability implies a trivial destructor, so inline events
    // need no destroy call and relocation is a plain memcpy.
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<D>;
  }

  // The tree's one reinterpret_cast (audited in DESIGN.md section 4c). It is
  // well-defined because every call site upholds three preconditions:
  //  (1) identity: `s` is storage_ of an Event whose constructor
  //      placement-new'ed exactly a D (inline branch) or a D* (heap branch)
  //      there -- ops_ and D are selected together, so type confusion would
  //      require corrupting ops_;
  //  (2) alignment: storage_ is alignas(max_align_t) and fits_inline()
  //      rejects alignof(D) > max_align_t, so the cast pointer is aligned;
  //  (3) lifetime: the object's lifetime was started by placement new and,
  //      for moved Events, the memcpy in move_from() preserves it because
  //      the stored type is trivially copyable in both branches.
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
  static const D* as(const void* s) noexcept {
    return std::launder(reinterpret_cast<const D*>(s));
  }

  template <typename D>
  struct InlineOps {
    static void invoke(void* s) { (*as<D>(s))(); }
    static constexpr Ops ops{&invoke, nullptr, nullptr, true,
                             std::has_unique_object_representations_v<D> ? sizeof(D) : 0};
  };

  template <typename D>
  struct HeapOps {
    static void invoke(void* s) { (**as<D*>(s))(); }
    static void destroy(void* s) noexcept { delete *as<D*>(s); }
    static void clone(void* dst, const void* src) {
      if constexpr (std::is_copy_constructible_v<D>) {
        // Cold path (checkpointing a heap event): the box is copied.
        // hostnet-lint: allow(hot-alloc)
        ::new (dst) D*(new D(**as<D*>(src)));
      }
    }
    static constexpr Ops ops{&invoke, &destroy,
                             std::is_copy_constructible_v<D> ? &clone : nullptr, false, 0};
  };

  void move_from(Event& other) noexcept {
    // Both storage variants (trivially-copyable closure, heap pointer)
    // relocate by byte copy; copying the full buffer unconditionally keeps
    // the move branch-free.
    std::memcpy(storage_, other.storage_, kInlineBytes);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hostnet::sim
