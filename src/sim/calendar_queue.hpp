// Calendar/bucket event queue for the simulation kernel.
//
// Replaces the binary heap of (time, seq, std::function) entries: events are
// bucketed by Tick and kept in tick order within a bucket, with every push
// filed *after* the events already pending at its tick, so two events
// scheduled for the same tick fire in schedule order by construction -- no
// sequence counter, and determinism cannot be broken by a queue rebalance.
//
// Storage (DESIGN.md "Event kernel"): every pending event's closure lives in
// one slot of a chunked pool, where it is constructed once (emplace) and
// fired in place (pop_next + fire). Closure addresses never move (the pool
// grows by whole chunks), so a handler may schedule freely, and even grow
// the pool, while its own closure is running. Each event's tick and list
// link sit together in one {at, next} node of a flat array indexed by the
// same handle, so walking and relinking lists touches one 16-byte node per
// event instead of a closure's cache lines. Fired handles return to a LIFO
// free list, which keeps the live set in recently used cache lines. The levels below hold intrusive {head, tail}
// index lists, so migrating events between levels relinks indices and never
// copies a closure.
//
// Levels:
//   L0  -- 4096 slots of kSlotTicks (32) ticks each, covering the current
//          kWindowTicks (131072-tick, ~131 ns at the picosecond clock)
//          window. Hot-path hops span 2.7-290 ns, so not all of them land
//          here: the IIO -> CHA DMA hop (t_proc_* 250 ns + t_to_cha 40 ns)
//          never fits, and a short hop from near the aligned window's end
//          crosses it. Those go to L1 and are moved again (~15% of the
//          events of a q1_sweep run; DESIGN.md section 4a has the count).
//          8192- and 16384-slot windows measured at most 1% faster, so the
//          constants stay. A slot's list is sorted by tick and
//          stable: a push appends when it is not earlier than the tail (the
//          common case) and otherwise walks in from the head, behind the
//          last event at or before its tick. A bitmap over the slots finds
//          the next occupied slot with word-sized scans; the next event is
//          that slot's head, and pop_next() unlinks it in the same lookup.
//   L1  -- 4096 buckets of one window each (~537 us horizon). When the clock
//          enters a bucket's window the bucket is filed into L0 in insertion
//          order, with the same stable in-slot insert, which preserves
//          per-tick FIFO.
//   Map -- ticks beyond the horizon live in an exact-tick ordered map (rare:
//          end-of-run and control-loop timers).
//
// Same-tick FIFO across the three levels is maintained by two rules: (a) a
// level migrates into the one below *before* the clock can reach any of its
// ticks, and earlier-scheduled events land first; (b) a push that targets a
// tick still held by the overflow map appends to that map entry instead of
// the L1 bucket, so one tick's FIFO never straddles two structures.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class CalendarQueue {
 public:
  /// Ticks per L0 slot (32). Narrower slots advance the window more often;
  /// wider ones lengthen the in-slot sorted-insert walks.
  static constexpr int kSlotTickBits = 5;
  static constexpr Tick kSlotTicks = Tick(1) << kSlotTickBits;
  static constexpr int kSlotBits = 12;
  static constexpr std::size_t kNumSlots = std::size_t{1} << kSlotBits;
  /// Ticks covered by the L0 window (and by each L1 bucket).
  static constexpr int kWindowBits = kSlotTickBits + kSlotBits;
  static constexpr Tick kWindowTicks = Tick(1) << kWindowBits;
  static constexpr Tick kWindowMask = kWindowTicks - 1;
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kNumBuckets = std::size_t{1} << kBucketBits;
  /// Ticks at or beyond win_start + kHorizon go to the overflow map.
  static constexpr Tick kHorizon = Tick(1) << (kWindowBits + kBucketBits);
  /// Default pop_next() bound: never refuse a window advance.
  static constexpr Tick kNoBound = ~(Tick(1) << 63);
  /// Pool entries per chunk; the pool grows one chunk at a time.
  static constexpr int kChunkBits = 8;
  static constexpr std::size_t kChunkNodes = std::size_t{1} << kChunkBits;

  /// A popped event's pool handle, valid until it is passed to fire().
  using Handle = std::uint32_t;
  /// "No event": the handle pop_next() returns when it pops nothing.
  static constexpr Handle kNil = ~Handle{0};

  /// The event pop_next() unlinked: its tick and its pool handle.
  struct Popped {
    Tick at;
    Handle h;  ///< kNil when nothing was popped
  };

  /// Construct `fn` directly in a pool slot and file it behind every event
  /// already pending at tick `at`. `at` must be >= the last popped tick.
  template <typename F>
  void emplace(Tick at, F&& fn) {
    assert(at >= win_start_ && "cannot schedule before the current window");
    // cursor_ is the last popped tick: a push behind it could never fire and
    // would silently break same-tick FIFO determinism.
    HOSTNET_INVARIANT(at >= cursor_ && at >= win_start_,
                      "calendar-queue monotonicity: push at tick %lld behind "
                      "cursor %lld (window start %lld)",
                      static_cast<long long>(at), static_cast<long long>(cursor_),
                      static_cast<long long>(win_start_));
    const Handle h = acquire();
    event(h).emplace(std::forward<F>(fn));
    nodes_[h].at = at;
    ++size_;
    if (at < win_start_ + kWindowTicks)
      insert_run(slot_index(at), h, h, at);  // hot path: within the window
    else
      link_beyond_window(h);
  }

  /// Unlink the earliest pending event and return it, or return {_, kNil}
  /// when the queue is empty or when every pending event is provably later
  /// than `bound`; such an event stays pending. The event stays in its pool
  /// slot until fire(). Advances the L0 window (an order-preserving
  /// migration) when the current window is drained -- but never past
  /// `bound`: committing the window beyond the caller's horizon would
  /// mis-file later pushes that target ticks between the caller's clock and
  /// the jumped-to window (they would land in a slot of the wrong window and
  /// fire late). A caller that stops at `bound` (Simulator::run_until) must
  /// pass it; unbounded callers (step) use the default.
  Popped pop_next(Tick bound = kNoBound) {
    if (size_ == 0) return {0, kNil};
    // Fast path: an occupied slot in the cursor's bitmap word, at or after
    // the cursor's slot. Every pending tick is >= cursor_, so the slots
    // before it are empty and the first occupied one starts (its list is
    // sorted) with the earliest pending event.
    std::size_t slot = slot_index(cursor_);
    const std::uint64_t w = slot_bits_[slot / 64] & (~std::uint64_t{0} << (slot % 64));
    if (w != 0) {
      slot = (slot & ~std::size_t{63}) + static_cast<std::size_t>(std::countr_zero(w));
    } else {
      slot = next_slot_slow(bound);
      if (slot == kNumSlots) return {0, kNil};
    }
    List& l = slots_[slot];
    const Handle h = l.head;
    const Tick at = nodes_[h].at;
    if (at > bound) return {0, kNil};
    l.head = nodes_[h].next;
    if (l.head == kNil) {
      l.tail = kNil;
      slot_bits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    --size_;
    cursor_ = at;
    return {at, h};
  }

  /// Invoke a popped event in its pool slot, then recycle the slot. The
  /// handler may emplace() more events, growing the pool: chunks never move,
  /// so the running closure stays valid (the flat node array may
  /// reallocate, so no reference into it is held across the call).
  void fire(Handle h) {
    event(h)();
    nodes_[h].next = free_;
    free_ = h;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Checked-build audit (no-op otherwise): every L0 slot list is
  /// non-decreasing in tick, holds only its own slot's ticks at or after
  /// the cursor, and matches the occupancy bitmap.
  void verify_invariants() const;

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // The snapshot captures the queue's *logical* content -- (tick, event)
  // pairs per level, in firing order -- not its physical layout: pool
  // slots, their handles and the free list are storage, and load_state()
  // rebuilds them together with the slots, buckets, overflow map and both
  // bitmaps. A push-replay restore would be wrong here: rule (b) above files
  // a within-horizon push into the overflow map when that map still holds
  // the tick, so replaying events through emplace() could re-file a saved
  // overflow tick into an L1 bucket and break the "one tick's FIFO never
  // straddles two structures" invariant the next advance relies on.
  struct Snapshot {
    struct Item {
      Tick at = 0;
      Event ev;
      bool operator==(const Item&) const = default;
    };
    Tick win_start = 0;
    Tick cursor = 0;
    std::vector<Item> l0;        ///< current-window events, tick then FIFO order
    std::vector<Item> l1;        ///< L1 events, bucket-index then insertion order
    std::vector<Item> overflow;  ///< beyond-horizon events, map then FIFO order
    /// Identical tick sequences per level and equal closures (Event::==).
    bool operator==(const Snapshot&) const = default;
  };

  /// Copy the full pending-event state into `out` (vectors are reused, so a
  /// recycled Snapshot allocates nothing once warmed). Closures are copied
  /// byte for byte.
  void save_state(Snapshot& out) const;

  /// Restore the state captured by save_state(). Drops every pending
  /// event, keeps the pool's chunks (so a warm restore allocates nothing),
  /// and rebuilds the free list, level lists and bitmaps directly.
  void load_state(const Snapshot& s);

 private:
  /// "No window": next_bucket_base() when L1 is empty.
  static constexpr Tick kNoWindow = -1;

  /// One pool handle's tick and list link (the free list reuses `next`).
  struct Node {
    Tick at;
    Handle next;
  };

  /// Intrusive list of pool handles, linked through Node::next.
  struct List {
    Handle head = kNil;
    Handle tail = kNil;
  };

  Event& event(Handle h) { return chunks_[h >> kChunkBits][h & (kChunkNodes - 1)]; }
  const Event& event(Handle h) const {
    return chunks_[h >> kChunkBits][h & (kChunkNodes - 1)];
  }

  /// Take a handle off the free list, growing the pool by a chunk when empty.
  Handle acquire() {
    if (free_ == kNil) grow();
    const Handle h = free_;
    free_ = nodes_[h].next;
    return h;
  }
  void grow();

  /// Append handle `h` to the tail of `l` (L1 buckets and overflow entries
  /// keep insertion order).
  void append(List& l, Handle h) {
    nodes_[h].next = kNil;
    if (l.tail == kNil)
      l.head = h;
    else
      nodes_[l.tail].next = h;
    l.tail = h;
  }

  /// File the chain first..last, whose events all sit at tick `at`, into L0
  /// slot `slot` behind every event at or before `at`.
  void insert_run(std::size_t slot, Handle first, Handle last, Tick at) {
    List& l = slots_[slot];
    nodes_[last].next = kNil;
    if (l.head == kNil) {
      slot_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
      l.head = first;
      l.tail = last;
    } else if (nodes_[l.tail].at <= at) {
      // Common case: not earlier than anything pending in the slot.
      nodes_[l.tail].next = first;
      l.tail = last;
    } else {
      insert_before_tail(l, first, last, at);
    }
  }
  /// insert_run() for a run earlier than the slot's tail: link it in behind
  /// the last event at or before `at`, walking from the head.
  void insert_before_tail(List& l, Handle first, Handle last, Tick at);

  /// File handle `h`, whose tick is at or beyond the window's end, into L1
  /// or the overflow map.
  void link_beyond_window(Handle h);

  static std::size_t slot_index(Tick at) {
    return static_cast<std::size_t>(at >> kSlotTickBits) & (kNumSlots - 1);
  }
  static std::size_t bucket_index(Tick at) {
    return static_cast<std::size_t>(at >> kWindowBits) & (kNumBuckets - 1);
  }

  /// pop_next() past the cursor-slot fast path: the first occupied L0 slot
  /// at or after the cursor's slot, advancing the window (bounded by
  /// `bound`) until one is found; kNumSlots when every pending event lies in
  /// a window that starts beyond `bound`.
  std::size_t next_slot_slow(Tick bound);

  /// First occupied L1 bucket after the current window's bucket (ring
  /// order), as an absolute window-base tick; kNoWindow if L1 is empty.
  Tick next_bucket_base() const;

  /// Move the window to the one containing `target`: file that window's L1
  /// bucket into L0 (insertion order), then splice overflow ticks that now
  /// fall inside the window.
  void advance_to(Tick target);

  /// Emit every event of list `l` into `out` as (tick, event) items.
  void save_list(const List& l, std::vector<Snapshot::Item>& out) const;

  Tick win_start_ = 0;  ///< aligned to kWindowTicks
  Tick cursor_ = 0;     ///< lower bound for the earliest pending tick
  std::size_t size_ = 0;
  std::array<List, kNumSlots> slots_;
  std::array<List, kNumBuckets> buckets_;
  std::array<std::uint64_t, kNumSlots / 64> slot_bits_{};
  std::array<std::uint64_t, kNumBuckets / 64> bucket_bits_{};
  // Beyond-horizon ticks are rare (end-of-run and control-loop timers) and
  // never on the per-event path, so an exact-tick ordered map is fine here.
  // hostnet-lint: allow(hot-alloc)
  std::map<Tick, List> overflow_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<Node> nodes_;
  Handle free_ = kNil;
  // Every member is storage, none is state: the snapshot is the logical
  // queue (Snapshot above), and load_state() rebuilds all of this from it.
  HOSTNET_COMPONENT_EXEMPT_ALL(CalendarQueue, win_start_, cursor_, size_, slots_, buckets_, slot_bits_,
                    bucket_bits_, overflow_, chunks_, nodes_, free_)
};

}  // namespace hostnet::sim
