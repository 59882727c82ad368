// Calendar/bucket event queue for the simulation kernel.
//
// Replaces the binary heap of (time, seq, std::function) entries: events are
// bucketed by Tick, and every bucket is a FIFO, so two events scheduled for
// the same tick fire in schedule order *by construction* -- no sequence
// counter, no comparator, and determinism cannot be broken by a queue
// rebalance.
//
// Storage (DESIGN.md "Event kernel"): every pending event lives in one node
// of a chunked pool -- {Event, Tick, next index} -- where it is constructed
// once (emplace) and fired in place (pop + fire). Node addresses never move
// (the pool grows by whole chunks), so a handler may schedule freely, and
// even grow the pool, while its own closure is running. Fired nodes return
// to a LIFO free list, which keeps the live set in recently used cache
// lines. The levels below hold intrusive {head, tail} index lists into the
// pool, so migrating events between levels relinks indices and never
// copies a closure.
//
// Levels:
//   L0  -- 4096 one-tick slots covering the current 4096-tick (~4 ns,
//          picosecond clock) window. schedule/fire within the window is a
//          list append / head unlink: O(1), zero allocations once the pool
//          has warmed up. A bitmap over the slots finds the next occupied
//          slot with word-sized scans.
//   L1  -- 4096 buckets of 4096 ticks each (~16.8 us horizon). When the
//          clock enters a bucket's window the bucket is scattered into L0 in
//          insertion order, which preserves per-tick FIFO.
//   Map -- ticks beyond the ~16.8 us horizon live in an exact-tick ordered
//          map (rare: device latencies, protocol RTT timers, control loops).
//
// Same-tick FIFO across the three levels is maintained by two rules: (a) a
// level migrates into the one below *before* the clock can reach any of its
// ticks, and earlier-scheduled events land first; (b) a push that targets a
// tick still held by the overflow map appends to that map entry instead of
// the L1 bucket, so one tick's FIFO never straddles two structures.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/snapshot.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"

namespace hostnet::sim {

class CalendarQueue {
 public:
  static constexpr int kSlotBits = 12;
  static constexpr std::size_t kNumSlots = std::size_t{1} << kSlotBits;  ///< L0 window
  static constexpr Tick kSlotMask = Tick(kNumSlots) - 1;
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kNumBuckets = std::size_t{1} << kBucketBits;
  /// Ticks at or beyond win_start + kHorizon go to the overflow map.
  static constexpr Tick kHorizon = Tick(1) << (kSlotBits + kBucketBits);
  static constexpr Tick kNoEvent = -1;
  /// Default next_tick() bound: never refuse a window advance.
  static constexpr Tick kNoBound = ~(Tick(1) << 63);
  /// Pool nodes per chunk; the pool grows one chunk at a time.
  static constexpr int kChunkBits = 8;
  static constexpr std::size_t kChunkNodes = std::size_t{1} << kChunkBits;

  /// A popped event's pool node, valid until it is passed to fire().
  using Handle = std::uint32_t;

  /// Construct `fn` directly in a pool node and append it to tick `at`'s
  /// FIFO. `at` must be >= the last popped tick.
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
    Node& n = node(h);
    n.ev.emplace(std::forward<F>(fn));
    n.at = at;
    link(h);
  }

  /// Tick of the earliest pending event, or kNoEvent when empty or when
  /// every pending event is provably later than `bound`. Advances the L0
  /// window (an order-preserving migration) when the current window is
  /// drained -- but never past `bound`: committing the window beyond the
  /// caller's horizon would mis-file later pushes that target ticks between
  /// the caller's clock and the jumped-to window (they would land in a slot
  /// of the wrong window and fire late). A caller that stops at `bound`
  /// (Simulator::run_until) must pass it; unbounded callers (step) use the
  /// default.
  Tick next_tick(Tick bound = kNoBound) {
    if (size_ == 0) return kNoEvent;
    // Fast path: the slot at the cursor tick still holds events (common when
    // many events share a tick), so no bitmap scan is needed. Slots hold
    // exactly one tick's events, so a non-empty cursor slot can only mean
    // more events at cursor_ itself.
    if (slots_[static_cast<std::size_t>(cursor_ & kSlotMask)].head != kNil) return cursor_;
    return next_tick_slow(bound);
  }

  /// Unlink the front event of tick `at`, which must be the value just
  /// returned by next_tick(). The event stays in its node until fire().
  Handle pop(Tick at) {
    assert(at >= win_start_ && at < win_start_ + Tick(kNumSlots));
    const auto slot = static_cast<std::size_t>(at & kSlotMask);
    List& l = slots_[slot];
    assert(l.head != kNil);
    const Handle h = l.head;
    l.head = node(h).next;
    if (l.head == kNil) {
      l.tail = kNil;
      slot_bits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }
    --size_;
    cursor_ = at;
    return h;
  }

  /// Invoke a popped event in its node, then recycle the node. The handler
  /// may emplace() more events, growing the pool: chunks never move, so the
  /// running closure stays valid.
  void fire(Handle h) {
    Node& n = node(h);
    n.ev();
    n.ev.reset();
    n.next = free_;
    free_ = h;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // The snapshot captures the queue's *logical* content -- (tick, event)
  // pairs per level, in firing order -- not its physical layout: pool nodes,
  // their indices and the free list are storage, and load_state() rebuilds
  // them together with the slots, buckets, overflow map and both bitmaps. A
  // push-replay restore would be wrong here: rule (b) above files a
  // within-horizon push into the overflow map when that map still holds the
  // tick, so replaying events through emplace() could re-file a saved
  // overflow tick into an L1 bucket and break the "one tick's FIFO never
  // straddles two structures" invariant the next advance relies on.
  struct Snapshot {
    struct Item {
      Tick at = 0;
      Event ev;
    };
    Tick win_start = 0;
    Tick cursor = 0;
    std::vector<Item> l0;        ///< current-window events, tick then FIFO order
    std::vector<Item> l1;        ///< L1 events, bucket-index then insertion order
    std::vector<Item> overflow;  ///< beyond-horizon events, map then FIFO order
  };

  /// Copy the full pending-event state into `out` (vectors are reused, so a
  /// recycled Snapshot allocates nothing once warmed). Every pending event
  /// must be clonable() -- asserted, since a non-clonable event would be
  /// silently lost on restore.
  void save_state(Snapshot& out) const;

  /// Restore the state captured by save_state(). Destroys every pending
  /// event, keeps the pool's chunks (so a warm restore allocates nothing),
  /// and rebuilds the free list, level lists and bitmaps directly.
  void load_state(const Snapshot& s);

  /// Checkpoint-audit equality of two snapshots: identical tick sequences
  /// per level and Event::audit_identical() closures. Powers the
  /// HOSTNET_CHECKED restore-then-resave audit in HostSystem::restore().
  static bool audit_identical(const Snapshot& a, const Snapshot& b);

 private:
  static constexpr Handle kNil = ~Handle{0};

  struct Node {
    Event ev;
    Tick at = 0;
    Handle next = kNil;  ///< next node in the same level list, or free list
  };
  /// Intrusive FIFO of pool nodes.
  struct List {
    Handle head = kNil;
    Handle tail = kNil;
  };

  Node& node(Handle h) { return chunks_[h >> kChunkBits][h & (kChunkNodes - 1)]; }
  const Node& node(Handle h) const {
    return chunks_[h >> kChunkBits][h & (kChunkNodes - 1)];
  }

  /// Take a node off the free list, growing the pool by a chunk when empty.
  Handle acquire() {
    if (free_ == kNil) grow();
    const Handle h = free_;
    free_ = node(h).next;
    return h;
  }
  void grow();

  /// Append node `h` (whose `at` is set) to the tail of `l`.
  void append(List& l, Handle h) {
    node(h).next = kNil;
    if (l.tail == kNil)
      l.head = h;
    else
      node(l.tail).next = h;
    l.tail = h;
  }

  /// File node `h` into L0, L1 or the overflow map by its tick.
  void link(Handle h);

  static std::size_t bucket_index(Tick at) {
    return static_cast<std::size_t>(at >> kSlotBits) & (kNumBuckets - 1);
  }

  /// next_tick() past the cursor-slot fast path: scan L0, advancing the
  /// window (bounded by `bound`) until an occupied slot is found.
  Tick next_tick_slow(Tick bound);

  /// First occupied L0 slot at tick >= from (within the current window), or
  /// kNoEvent.
  Tick scan_l0(Tick from) const;

  /// First occupied L1 bucket after the current window's bucket (ring
  /// order), as an absolute window-base tick; kNoEvent if L1 is empty.
  Tick next_bucket_base() const;

  /// Move the window to the one containing `target`: scatter that window's
  /// L1 bucket into L0 (insertion order), then splice overflow ticks that
  /// now fall inside the window.
  void advance_to(Tick target);

  /// Emit every event of list `l` into `out` as (tick, clone) items.
  void save_list(const List& l, std::vector<Snapshot::Item>& out) const;

  Tick win_start_ = 0;  ///< aligned to kNumSlots
  Tick cursor_ = 0;     ///< lower bound for the earliest pending tick
  // hostnet-audit: skip(size_, derived event count; rebuilt on restore from the saved slots, buckets and overflow)
  std::size_t size_ = 0;
  std::array<List, kNumSlots> slots_;
  std::array<List, kNumBuckets> buckets_;
  // hostnet-audit: skip(slot_bits_, derived occupancy bitmap; rebuilt on restore from the saved slots)
  std::array<std::uint64_t, kNumSlots / 64> slot_bits_{};
  // hostnet-audit: skip(bucket_bits_, derived occupancy bitmap; rebuilt on restore from the saved buckets)
  std::array<std::uint64_t, kNumBuckets / 64> bucket_bits_{};
  // Beyond-horizon ticks are rare (device latencies, protocol timers) and
  // never on the per-event path, so an exact-tick ordered map is fine here.
  // hostnet-lint: allow(hot-alloc)
  std::map<Tick, List> overflow_;
  // hostnet-audit: skip(chunks_, node-pool storage, not logical state; load_state rebuilds the pool contents from the saved levels)
  std::vector<std::unique_ptr<Node[]>> chunks_;
  // hostnet-audit: skip(free_, node-pool free-list head, not logical state; load_state rebuilds it)
  Handle free_ = kNil;
};

HOSTNET_SNAPSHOT_COVERS(CalendarQueue);

}  // namespace hostnet::sim
