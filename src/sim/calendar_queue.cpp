#include "sim/calendar_queue.hpp"

#include <bit>

namespace hostnet::sim {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// First set bit at index >= from in `bits` (no wraparound), or kNpos.
template <std::size_t N>
std::size_t find_bit_ge(const std::array<std::uint64_t, N>& bits, std::size_t from) {
  std::size_t word = from / 64;
  if (word >= N) return kNpos;
  std::uint64_t w = bits[word] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    if (w != 0) return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
    if (++word == N) return kNpos;
    w = bits[word];
  }
}

template <std::size_t N>
void set_bit(std::array<std::uint64_t, N>& bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

}  // namespace

void CalendarQueue::grow() {
  // Chunks are never reallocated, so closure addresses -- and a closure that
  // is running in one -- survive growth. Amortized: the pool reaches its
  // high-water mark during warm-up and is recycled from then on.
  const auto base = static_cast<Handle>(chunks_.size() * kChunkNodes);
  chunks_.push_back(std::make_unique<Event[]>(kChunkNodes));
  nodes_.resize(base + kChunkNodes);
  // Thread the new handles so the lowest index is handed out first.
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    nodes_[base + i].next = free_;
    free_ = base + static_cast<Handle>(i);
  }
}

void CalendarQueue::insert_before_tail(List& l, Handle first, Handle last, Tick at) {
  if (at < nodes_[l.head].at) {
    nodes_[last].next = l.head;
    l.head = first;
    return;
  }
  // The tail is later than `at`, so the walk stops before running off the
  // list.
  Handle p = l.head;
  while (nodes_[nodes_[p].next].at <= at) p = nodes_[p].next;
  nodes_[last].next = nodes_[p].next;
  nodes_[p].next = first;
}

void CalendarQueue::link_beyond_window(Handle h) {
  const Tick at = nodes_[h].at;
  if (at < win_start_ + kHorizon) {
    // If the overflow map still holds this exact tick (scheduled when it was
    // beyond the horizon), append there so the tick's FIFO stays whole.
    if (!overflow_.empty() && overflow_.begin()->first <= at) {
      auto it = overflow_.find(at);
      if (it != overflow_.end()) {
        append(it->second, h);
        return;
      }
    }
    const std::size_t b = bucket_index(at);
    if (buckets_[b].head == kNil) set_bit(bucket_bits_, b);
    append(buckets_[b], h);
    return;
  }
  append(overflow_[at], h);
}

Tick CalendarQueue::next_bucket_base() const {
  const std::size_t cb = bucket_index(win_start_);
  // The current window's bucket is always empty (filed into L0 on advance),
  // so a plain two-segment scan over the ring cannot return a stale hit at cb.
  std::size_t b = find_bit_ge(bucket_bits_, cb + 1);
  if (b == kNpos) b = find_bit_ge(bucket_bits_, 0);
  if (b == kNpos) return kNoWindow;
  const std::size_t dist = (b - cb) & (kNumBuckets - 1);
  return win_start_ + Tick(dist) * kWindowTicks;
}

void CalendarQueue::advance_to(Tick target) {
  win_start_ = target & ~kWindowMask;
  cursor_ = win_start_;
  const std::size_t cb = bucket_index(win_start_);
  List& bucket = buckets_[cb];
  if (bucket.head != kNil) {
    bucket_bits_[cb / 64] &= ~(std::uint64_t{1} << (cb % 64));
    // Insertion order in, stable insert per slot: same-tick FIFO survives.
    for (Handle h = bucket.head; h != kNil;) {
      const Handle next = nodes_[h].next;
      const Tick at = nodes_[h].at;
      assert(at >= win_start_ && at < win_start_ + kWindowTicks);
      insert_run(slot_index(at), h, h, at);
      h = next;
    }
    bucket = List{};
  }
  // Overflow ticks that now fall inside the window are spliced into L0 whole.
  // A tick's FIFO lives either here or in the L1 bucket, never both, so
  // migration order between the two cannot reorder same-tick events.
  while (!overflow_.empty() && overflow_.begin()->first < win_start_ + kWindowTicks) {
    auto it = overflow_.begin();
    insert_run(slot_index(it->first), it->second.head, it->second.tail, it->first);
    overflow_.erase(it);
  }
}

std::size_t CalendarQueue::next_slot_slow(Tick bound) {
  for (;;) {
    const std::size_t slot = find_bit_ge(slot_bits_, slot_index(cursor_));
    if (slot != kNpos) return slot;
    // Window drained: jump to the earliest populated window (L1 or overflow).
    Tick target = next_bucket_base();
    if (!overflow_.empty()) {
      const Tick k = overflow_.begin()->first & ~kWindowMask;
      if (target == kNoWindow || k < target) target = k;
    }
    assert(target != kNoWindow && "size_ > 0 but no events found");
    // Every pending event is at >= target. If that is past the caller's
    // horizon, report "nothing to run" WITHOUT advancing: the caller's clock
    // stops at `bound`, and a committed jump would strand later pushes in
    // [clock, target) behind the window (they'd be filed into the wrong
    // window's slot and fire late).
    if (target > bound) return kNumSlots;
    advance_to(target);
  }
}

void CalendarQueue::verify_invariants() const {
#if HOSTNET_CHECKED
  for (std::size_t slot = 0; slot < kNumSlots; ++slot) {
    const List& l = slots_[slot];
    const bool occupied = (slot_bits_[slot / 64] >> (slot % 64)) & 1;
    HOSTNET_INVARIANT(occupied == (l.head != kNil),
                      "calendar-queue: L0 slot %zu occupancy bit %d disagrees with its list",
                      slot, static_cast<int>(occupied));
    const Tick lo = win_start_ + Tick(slot) * kSlotTicks;
    Tick last = cursor_ > lo ? cursor_ : lo;
    std::size_t n = 0;
    for (Handle h = l.head; h != kNil; h = nodes_[h].next) {
      const Tick at = nodes_[h].at;
      HOSTNET_INVARIANT(at >= last && at < lo + kSlotTicks,
                        "calendar-queue: L0 slot %zu out of tick order: tick %lld after "
                        "%lld (slot covers [%lld, %lld), cursor %lld)",
                        slot, static_cast<long long>(at), static_cast<long long>(last),
                        static_cast<long long>(lo), static_cast<long long>(lo + kSlotTicks),
                        static_cast<long long>(cursor_));
      HOSTNET_INVARIANT(nodes_[h].next != kNil || h == l.tail,
                        "calendar-queue: L0 slot %zu list ends before its tail", slot);
      last = at;
      HOSTNET_INVARIANT(++n <= size_, "calendar-queue: L0 slot %zu list cycles", slot);
    }
  }
#endif
}

void CalendarQueue::save_list(const List& l, std::vector<Snapshot::Item>& out) const {
  for (Handle h = l.head; h != kNil; h = nodes_[h].next)
    out.push_back(Snapshot::Item{nodes_[h].at, event(h)});
}

void CalendarQueue::save_state(Snapshot& out) const {
  out.win_start = win_start_;
  out.cursor = cursor_;
  out.l0.clear();
  out.l1.clear();
  out.overflow.clear();
  // win_start_ is window-aligned (advance_to masks it), so slot index order
  // is tick order, and each slot's list is already sorted by tick.
  assert((win_start_ & kWindowMask) == 0);
  for (const List& l : slots_) save_list(l, out.l0);
  for (const List& l : buckets_) save_list(l, out.l1);
  for (const auto& [at, l] : overflow_) save_list(l, out.overflow);
}

void CalendarQueue::load_state(const Snapshot& s) {
  // Thread all handles onto the free list, lowest index first; the chunks
  // themselves are kept.
  free_ = kNil;
  for (std::size_t h = nodes_.size(); h-- > 0;) {
    nodes_[h].next = free_;
    free_ = static_cast<Handle>(h);
  }
  slots_.fill(List{});
  buckets_.fill(List{});
  slot_bits_ = {};
  bucket_bits_ = {};
  overflow_.clear();
  win_start_ = s.win_start;
  cursor_ = s.cursor;
  size_ = s.l0.size() + s.l1.size() + s.overflow.size();
  const auto adopt = [this](const Snapshot::Item& it) {
    const Handle h = acquire();
    event(h) = it.ev;
    nodes_[h].at = it.at;
    return h;
  };
  // l0 is in tick order, so each event files at its slot's tail.
  for (const Snapshot::Item& it : s.l0) {
    assert(it.at >= win_start_ && it.at < win_start_ + kWindowTicks);
    const Handle h = adopt(it);
    insert_run(slot_index(it.at), h, h, it.at);
  }
  for (const Snapshot::Item& it : s.l1) {
    const std::size_t b = bucket_index(it.at);
    set_bit(bucket_bits_, b);
    append(buckets_[b], adopt(it));
  }
  for (const Snapshot::Item& it : s.overflow) append(overflow_[it.at], adopt(it));
}

}  // namespace hostnet::sim
