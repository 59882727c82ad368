// Fixed-capacity slot arena for the MC channel's pending queues (RPQ/WPQ).
//
// The RPQ/WPQ used to be std::deque<Entry>: every enqueue/erase shuffled
// 100+-byte entries through the allocator's block chain, and erasing the
// issued entry from the middle shifted half the queue. Real DRAM
// schedulers (Ramulator, DRAMsim3) instead keep requests in fixed request
// slots and schedule through indexes. This arena does the same:
//
//  * entries live in a vector sized once from the configured queue
//    capacity and NEVER move until released -- enqueue pops a free slot,
//    erase pushes it back; zero allocations after construction;
//  * arrival (FIFO) order is an intrusive doubly-linked list over slot
//    indices, so "oldest first" iteration survives middle erasure without
//    shifting memory;
//  * prepped entries (those owning a bank with a row activation in flight)
//    form a second intrusive list, kept sorted by entry id (= age). The
//    FR-FCFS issue scan ("oldest row-ready entry wins the data bus") walks
//    only this list -- bounded by the bank count, not the queue depth --
//    and an incrementally maintained earliest-row_ready_at tracker answers
//    "when can the next issue happen" without rescanning;
//  * the bank-prep window (the first `window` FIFO positions) is tracked
//    explicitly: a fence index marks the first beyond-window slot, erasure
//    advances it in O(1), and the unprepped entries inside the window form
//    a third intrusive (age-ordered) list -- the only entries a prep scan
//    could possibly act on;
//  * the banks those unprepped-in-window entries target form a bank set
//    (one bit per bank, 64 banks per word, with a per-bank entry count), so
//    the channel can tell in O(banks / 64) whether a prep scan would find a
//    free bank at all, and how many preps it will make.
//
// Invariants (see DESIGN.md section 4b):
//  * prepped list ⊆ FIFO list, both ordered by ascending entry id;
//  * every prepped entry owns its bank in Channel::State::banks_owned, and every
//    owned bank is targeted by exactly one prepped entry (ownership is
//    released in Channel code before or at the same point the slot is
//    erased/unprepped);
//  * earliest_ready() equals min(row_ready_at) over the prepped list
//    (recomputed lazily after a removal that may have held the minimum);
//  * in_window(i) <=> FIFO position of i < window; prepped ⊆ window
//    (positions only shrink, prep only happens in-window), so the
//    unprepped-in-window list is exactly window \ prepped, age-ordered;
//  * bank b is in unprepped_window_banks() <=> some unprepped-in-window entry
//    targets b.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "mem/request.hpp"

namespace hostnet::mc {

/// One pending request in a channel queue. Fields mirror the scheduler's
/// per-request state; link fields are managed by SlotQueue.
struct Entry {
  mem::Request req;
  dram::Coord coord;
  Tick arrival = 0;
  std::uint64_t id = 0;  ///< monotonically increasing; defines FIFO age
  bool prepped = false;
  Tick row_ready_at = 0;
  dram::RowResult row_result = dram::RowResult::kHit;

  bool operator==(const Entry&) const = default;
};

class SlotQueue {
 public:
  using SlotIndex = std::uint16_t;
  static constexpr SlotIndex kNil = std::numeric_limits<SlotIndex>::max();
  static constexpr Tick kNoReady = std::numeric_limits<Tick>::max();

  /// An empty zero-capacity arena: the value a default Channel::State holds
  /// until a checkpoint is copied into it.
  SlotQueue() = default;

  /// `window` is the bank-prep window depth (entries at FIFO positions
  /// >= window are outside it; a window >= capacity means "everything").
  /// Entries must target banks below `banks`.
  SlotQueue(std::uint32_t capacity, std::uint32_t window, std::uint32_t banks)
      : slots_(capacity),
        window_(window),
        uw_bank_count_(banks, 0),
        uw_banks_((banks + 63) / 64, 0) {
    assert(capacity > 0 && capacity < kNil && window > 0 && banks > 0);
    // Seed the free list with all slots (order is irrelevant: FIFO order is
    // defined by the intrusive list, not by slot index).
    for (std::uint32_t i = 0; i < capacity; ++i)
      slots_[i].next = i + 1 < capacity ? static_cast<SlotIndex>(i + 1) : kNil;
    free_head_ = 0;
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return free_head_ == kNil; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  Entry& entry(SlotIndex i) { return slots_[i].e; }
  const Entry& entry(SlotIndex i) const { return slots_[i].e; }

  Entry& front() {
    assert(head_ != kNil);
    return slots_[head_].e;
  }
  const Entry& front() const {
    assert(head_ != kNil);
    return slots_[head_].e;
  }

  // -- FIFO (age) order -------------------------------------------------------
  SlotIndex fifo_head() const { return head_; }
  SlotIndex fifo_next(SlotIndex i) const { return slots_[i].next; }

  // -- prepped sublist (age order) --------------------------------------------
  SlotIndex prepped_head() const { return phead_; }
  SlotIndex prepped_next(SlotIndex i) const { return slots_[i].pnext; }
  std::uint32_t prepped_count() const { return prepped_count_; }
  std::uint32_t unprepped_count() const {
    return static_cast<std::uint32_t>(size_) - prepped_count_;
  }

  // -- unprepped-in-window sublist (age order) --------------------------------
  // The only entries a bank-prep scan can act on: inside the first `window`
  // FIFO positions and not yet owning a bank.
  SlotIndex unprepped_window_head() const { return uw_head_; }
  SlotIndex unprepped_window_next(SlotIndex i) const { return slots_[i].wnext; }
  bool in_window(SlotIndex i) const { return slots_[i].in_window; }
  /// Banks targeted by at least one unprepped-in-window entry: bit b % 64 of
  /// word b / 64.
  const std::vector<std::uint64_t>& unprepped_window_banks() const { return uw_banks_; }

  /// Append a new entry at the FIFO tail. Caller must have checked !full().
  /// Returns its slot; the entry starts unprepped.
  SlotIndex push_back(const mem::Request& req, const dram::Coord& coord, Tick arrival,
                      std::uint64_t id) {
    assert(free_head_ != kNil);
    HOSTNET_INVARIANT(free_head_ != kNil, "SlotQueue::push_back into a full queue (%u slots)",
                      static_cast<unsigned>(slots_.size()));
    const SlotIndex i = free_head_;
    Slot& s = slots_[i];
    free_head_ = s.next;
    s.e = Entry{req, coord, arrival, id, false, 0, dram::RowResult::kHit};
    s.next = kNil;
    s.prev = tail_;
    s.pnext = s.pprev = kNil;
    s.wnext = s.wprev = kNil;
    if (tail_ != kNil)
      slots_[tail_].next = i;
    else
      head_ = i;
    tail_ = i;
    ++size_;
    if (size_ <= window_) {
      // Newest entry of the window: append to the unprepped-window tail.
      s.in_window = true;
      uw_append(i);
    } else {
      s.in_window = false;
      if (size_ == window_ + 1) fence_ = i;  // first slot beyond the window
    }
    return i;
  }

  /// Mark slot `i` prepped (row activation issued; row_ready_at must already
  /// be set). Inserts into the prepped list at its age position and folds
  /// row_ready_at into the earliest-ready tracker.
  void mark_prepped(SlotIndex i) {
    Slot& s = slots_[i];
    assert(!s.e.prepped);
    assert(s.in_window);  // prep never reaches beyond the window
    uw_unlink(i);
    s.e.prepped = true;
    ++prepped_count_;
    // Age-ordered insert. prep scans run oldest-first, so the common case
    // appends at the tail; an older entry whose bank only now became free
    // walks a few links back.
    SlotIndex after = ptail_;
    while (after != kNil && slots_[after].e.id > s.e.id) after = slots_[after].pprev;
    s.pprev = after;
    if (after == kNil) {
      s.pnext = phead_;
      if (phead_ != kNil) slots_[phead_].pprev = i;
      phead_ = i;
    } else {
      s.pnext = slots_[after].pnext;
      if (s.pnext != kNil) slots_[s.pnext].pprev = i;
      slots_[after].pnext = i;
    }
    if (s.pnext == kNil) ptail_ = i;
    if (!ready_dirty_) earliest_ready_ = std::min(earliest_ready_, s.e.row_ready_at);
  }

  /// Revert slot `i` to unprepped (bank reservation released on mode switch).
  void unprep(SlotIndex i) {
    Slot& s = slots_[i];
    if (!s.e.prepped) return;
    s.e.prepped = false;
    unlink_prepped(i);
    uw_insert_ordered(i);  // prepped ⊆ window, so it rejoins the window list
  }

  /// Release slot `i` entirely (entry issued). Unpreps first if needed.
  void erase(SlotIndex i) {
    Slot& s = slots_[i];
    if (s.e.prepped) {
      s.e.prepped = false;
      unlink_prepped(i);
    } else if (s.in_window) {
      uw_unlink(i);
    }
    if (s.prev != kNil)
      slots_[s.prev].next = s.next;
    else
      head_ = s.next;
    if (s.next != kNil)
      slots_[s.next].prev = s.prev;
    else
      tail_ = s.prev;
    if (s.in_window) {
      // A window position opened: the fence slot (oldest beyond-window
      // entry, younger than every window entry) slides in at the tail.
      if (fence_ != kNil) {
        const SlotIndex w = fence_;
        fence_ = slots_[w].next;
        slots_[w].in_window = true;
        uw_append(w);  // beyond-window entries are never prepped
      }
    } else if (i == fence_) {
      fence_ = s.next;
    }
    s.next = free_head_;
    free_head_ = i;
    --size_;
  }

#if HOSTNET_CHECKED
  /// Quiesce-point audit of the arena (DESIGN.md section 4c): walks every
  /// intrusive list and cross-checks them against the counters and the
  /// header-comment invariants. The running `<= capacity` guards turn a
  /// cycle in a corrupted list into an abort instead of a hang.
  void verify_arena(const char* name) const {
    const auto cap = static_cast<std::uint32_t>(slots_.size());
    // FIFO list: length == size_, ascending entry ids, prepped ⊆ window.
    std::uint32_t fifo = 0, window_seen = 0;
    std::uint64_t last_id = 0;
    for (SlotIndex i = head_; i != kNil; i = slots_[i].next) {
      const Slot& s = slots_[i];
      HOSTNET_INVARIANT(fifo == 0 || s.e.id > last_id,
                        "%s: FIFO list out of age order at slot %u (id %llu after %llu)",
                        name, i, static_cast<unsigned long long>(s.e.id),
                        static_cast<unsigned long long>(last_id));
      last_id = s.e.id;
      if (s.in_window) ++window_seen;
      HOSTNET_INVARIANT(!s.e.prepped || s.in_window,
                        "%s: prepped entry id %llu sits outside the prep window", name,
                        static_cast<unsigned long long>(s.e.id));
      HOSTNET_INVARIANT(++fifo <= cap, "%s: FIFO list cycles (> %u slots)", name, cap);
    }
    HOSTNET_INVARIANT(fifo == size_, "%s: FIFO list holds %u entries but size() is %u",
                      name, fifo, static_cast<std::uint32_t>(size_));
    HOSTNET_INVARIANT(window_seen == (size_ < window_ ? size_ : window_),
                      "%s: %u entries flagged in-window but the first min(size %u, "
                      "window %u) FIFO positions define the window",
                      name, window_seen, static_cast<std::uint32_t>(size_), window_);
    // Prepped sublist: length == prepped_count_, ascending ids, all flagged.
    std::uint32_t prepped = 0;
    Tick min_ready = kNoReady;
    last_id = 0;
    for (SlotIndex i = phead_; i != kNil; i = slots_[i].pnext) {
      const Slot& s = slots_[i];
      HOSTNET_INVARIANT(s.e.prepped, "%s: unprepped entry id %llu on the prepped list",
                        name, static_cast<unsigned long long>(s.e.id));
      HOSTNET_INVARIANT(prepped == 0 || s.e.id > last_id,
                        "%s: prepped list out of age order at slot %u", name, i);
      last_id = s.e.id;
      min_ready = s.e.row_ready_at < min_ready ? s.e.row_ready_at : min_ready;
      HOSTNET_INVARIANT(++prepped <= cap, "%s: prepped list cycles (> %u slots)", name, cap);
    }
    HOSTNET_INVARIANT(prepped == prepped_count_,
                      "%s: prepped list holds %u entries but prepped_count() is %u", name,
                      prepped, prepped_count_);
    HOSTNET_INVARIANT(ready_dirty_ || earliest_ready_ == min_ready,
                      "%s: earliest_ready tracker %lld != min(row_ready_at) %lld", name,
                      static_cast<long long>(earliest_ready_),
                      static_cast<long long>(min_ready));
    // Unprepped-in-window sublist: exactly window \ prepped, never prepped.
    std::uint32_t uw = 0;
    for (SlotIndex i = uw_head_; i != kNil; i = slots_[i].wnext) {
      const Slot& s = slots_[i];
      HOSTNET_INVARIANT(s.in_window && !s.e.prepped,
                        "%s: unprepped-window list entry id %llu is %s", name,
                        static_cast<unsigned long long>(s.e.id),
                        s.e.prepped ? "prepped" : "outside the window");
      HOSTNET_INVARIANT(++uw <= cap, "%s: unprepped-window list cycles (> %u slots)", name,
                        cap);
    }
    HOSTNET_INVARIANT(uw == window_seen - prepped,
                      "%s: unprepped-window list holds %u entries, expected %u in-window "
                      "minus %u prepped",
                      name, uw, window_seen, prepped);
    // The bank set and its counts, recomputed from the sublist.
    std::vector<std::uint16_t> count(uw_bank_count_.size(), 0);
    for (SlotIndex i = uw_head_; i != kNil; i = slots_[i].wnext) {
      const std::uint32_t b = slots_[i].e.coord.bank;
      HOSTNET_INVARIANT(b < count.size(), "%s: unprepped-window entry targets bank %u of %zu",
                        name, b, count.size());
      ++count[b];
    }
    for (std::size_t b = 0; b < count.size(); ++b) {
      const bool in_set = (uw_banks_[b / 64] >> (b % 64)) & 1;
      HOSTNET_INVARIANT(count[b] == uw_bank_count_[b] && in_set == (count[b] > 0),
                        "%s: unprepped-window bank set out of date at bank %zu: %u entries "
                        "target it, the set counts %u and %s it",
                        name, b, count[b], uw_bank_count_[b], in_set ? "holds" : "lacks");
    }
    // Free list + live entries must tile the arena exactly (slot leak check:
    // "arena occupancy == queue depth").
    std::uint32_t free_slots = 0;
    for (SlotIndex i = free_head_; i != kNil; i = slots_[i].next)
      HOSTNET_INVARIANT(++free_slots <= cap, "%s: free list cycles (> %u slots)", name, cap);
    HOSTNET_INVARIANT(free_slots + size_ == cap,
                      "%s: arena slot leak: %u free + %u live != %u slots", name, free_slots,
                      static_cast<std::uint32_t>(size_), cap);
  }
#else
  void verify_arena(const char*) const {}
#endif

  /// Logical equality: the same entries (with their prepped and in-window
  /// flags) in the same FIFO order under the same prep window. Slot indices,
  /// the free list and the capacity are storage; the prepped and
  /// unprepped-window lists, the bank set and the earliest-ready tracker
  /// are all determined by the FIFO contents.
  bool operator==(const SlotQueue& o) const {
    if (size_ != o.size_ || window_ != o.window_) return false;
    for (SlotIndex i = head_, j = o.head_; i != kNil; i = slots_[i].next, j = o.slots_[j].next)
      if (!(slots_[i].e == o.slots_[j].e) || slots_[i].in_window != o.slots_[j].in_window)
        return false;
    return true;
  }

  /// min(row_ready_at) over prepped entries, kNoReady when none are prepped.
  /// Maintained incrementally; recomputes (bounded by the bank count) only
  /// after a removal that may have held the minimum.
  Tick earliest_ready() {
    if (ready_dirty_) {
      earliest_ready_ = kNoReady;
      for (SlotIndex i = phead_; i != kNil; i = slots_[i].pnext)
        earliest_ready_ = std::min(earliest_ready_, slots_[i].e.row_ready_at);
      ready_dirty_ = false;
    }
    return earliest_ready_;
  }

 private:
  struct Slot {
    Entry e;
    SlotIndex next = kNil, prev = kNil;    ///< FIFO list (doubles as free list via next)
    SlotIndex pnext = kNil, pprev = kNil;  ///< prepped sublist
    SlotIndex wnext = kNil, wprev = kNil;  ///< unprepped-in-window sublist
    bool in_window = false;
  };

  void uw_bank_add(SlotIndex i) {
    const std::uint32_t b = slots_[i].e.coord.bank;
    if (uw_bank_count_[b]++ == 0) uw_banks_[b / 64] |= std::uint64_t{1} << (b % 64);
  }

  void uw_bank_remove(SlotIndex i) {
    const std::uint32_t b = slots_[i].e.coord.bank;
    if (--uw_bank_count_[b] == 0) uw_banks_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }

  void uw_append(SlotIndex i) {
    uw_bank_add(i);
    Slot& s = slots_[i];
    s.wnext = kNil;
    s.wprev = uw_tail_;
    if (uw_tail_ != kNil)
      slots_[uw_tail_].wnext = i;
    else
      uw_head_ = i;
    uw_tail_ = i;
  }

  void uw_unlink(SlotIndex i) {
    uw_bank_remove(i);
    Slot& s = slots_[i];
    if (s.wprev != kNil)
      slots_[s.wprev].wnext = s.wnext;
    else
      uw_head_ = s.wnext;
    if (s.wnext != kNil)
      slots_[s.wnext].wprev = s.wprev;
    else
      uw_tail_ = s.wprev;
    s.wnext = s.wprev = kNil;
  }

  /// Age-ordered insert (for unprep: a mode-switch release returns old
  /// entries, so walk forward from the head -- usually few steps).
  void uw_insert_ordered(SlotIndex i) {
    uw_bank_add(i);
    Slot& s = slots_[i];
    SlotIndex before = uw_head_;
    while (before != kNil && slots_[before].e.id < s.e.id) before = slots_[before].wnext;
    s.wnext = before;
    if (before == kNil) {
      s.wprev = uw_tail_;
      if (uw_tail_ != kNil)
        slots_[uw_tail_].wnext = i;
      else
        uw_head_ = i;
      uw_tail_ = i;
    } else {
      s.wprev = slots_[before].wprev;
      if (s.wprev != kNil)
        slots_[s.wprev].wnext = i;
      else
        uw_head_ = i;
      slots_[before].wprev = i;
    }
  }

  void unlink_prepped(SlotIndex i) {
    Slot& s = slots_[i];
    if (s.pprev != kNil)
      slots_[s.pprev].pnext = s.pnext;
    else
      phead_ = s.pnext;
    if (s.pnext != kNil)
      slots_[s.pnext].pprev = s.pprev;
    else
      ptail_ = s.pprev;
    s.pnext = s.pprev = kNil;
    --prepped_count_;
    if (prepped_count_ == 0) {
      earliest_ready_ = kNoReady;
      ready_dirty_ = false;
    } else if (!ready_dirty_ && s.e.row_ready_at <= earliest_ready_) {
      ready_dirty_ = true;  // may have held the minimum
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t window_ = 0;
  SlotIndex head_ = kNil, tail_ = kNil;
  SlotIndex phead_ = kNil, ptail_ = kNil;
  SlotIndex uw_head_ = kNil, uw_tail_ = kNil;
  /// Unprepped-in-window entries per bank, and the set of banks with any.
  std::vector<std::uint16_t> uw_bank_count_;
  std::vector<std::uint64_t> uw_banks_;
  SlotIndex fence_ = kNil;  ///< first beyond-window slot (kNil if none)
  SlotIndex free_head_ = kNil;
  std::uint32_t size_ = 0;
  std::uint32_t prepped_count_ = 0;
  Tick earliest_ready_ = kNoReady;
  bool ready_dirty_ = false;
};

}  // namespace hostnet::mc
