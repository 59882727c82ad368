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
  // Chunks are never reallocated, so node addresses -- and a closure that is
  // running in one -- survive growth. Amortized: the pool reaches its
  // high-water mark during warm-up and is recycled from then on.
  const auto base = static_cast<Handle>(chunks_.size() * kChunkNodes);
  chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
  // Thread the new nodes so the lowest index is handed out first.
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunks_.back()[i].next = free_;
    free_ = base + static_cast<Handle>(i);
  }
}

void CalendarQueue::link(Handle h) {
  ++size_;
  const Tick at = node(h).at;
  if (at < win_start_ + Tick(kNumSlots)) {
    // Hot path: within the current window -- append to the one-tick slot.
    const auto slot = static_cast<std::size_t>(at & kSlotMask);
    if (slots_[slot].head == kNil) set_bit(slot_bits_, slot);
    append(slots_[slot], h);
    return;
  }
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

Tick CalendarQueue::scan_l0(Tick from) const {
  if (from >= win_start_ + Tick(kNumSlots)) return kNoEvent;
  const std::size_t s =
      find_bit_ge(slot_bits_, static_cast<std::size_t>(from < win_start_ ? 0 : from - win_start_));
  return s == kNpos ? kNoEvent : win_start_ + Tick(s);
}

Tick CalendarQueue::next_bucket_base() const {
  const std::size_t cb = bucket_index(win_start_);
  // The current window's bucket is always empty (scattered on advance), so a
  // plain two-segment scan over the ring cannot return a stale hit at cb.
  std::size_t b = find_bit_ge(bucket_bits_, cb + 1);
  if (b == kNpos) b = find_bit_ge(bucket_bits_, 0);
  if (b == kNpos) return kNoEvent;
  const std::size_t dist = (b - cb) & (kNumBuckets - 1);
  return win_start_ + Tick(dist) * Tick(kNumSlots);
}

void CalendarQueue::advance_to(Tick target) {
  win_start_ = target & ~kSlotMask;
  cursor_ = win_start_;
  const std::size_t cb = bucket_index(win_start_);
  List& bucket = buckets_[cb];
  if (bucket.head != kNil) {
    bucket_bits_[cb / 64] &= ~(std::uint64_t{1} << (cb % 64));
    for (Handle h = bucket.head; h != kNil;) {
      const Handle next = node(h).next;
      const Tick at = node(h).at;
      assert(at >= win_start_ && at < win_start_ + Tick(kNumSlots));
      const auto slot = static_cast<std::size_t>(at & kSlotMask);
      if (slots_[slot].head == kNil) set_bit(slot_bits_, slot);
      append(slots_[slot], h);
      h = next;
    }
    bucket = List{};
  }
  // Overflow ticks that now fall inside the window are spliced into L0 whole.
  // A tick's FIFO lives either here or in the L1 bucket, never both, so
  // migration order between the two cannot reorder same-tick events.
  while (!overflow_.empty() && overflow_.begin()->first < win_start_ + Tick(kNumSlots)) {
    auto it = overflow_.begin();
    const auto slot = static_cast<std::size_t>(it->first & kSlotMask);
    List& dst = slots_[slot];
    if (dst.head == kNil) {
      set_bit(slot_bits_, slot);
      dst = it->second;
    } else {
      node(dst.tail).next = it->second.head;
      dst.tail = it->second.tail;
    }
    overflow_.erase(it);
  }
}

Tick CalendarQueue::next_tick_slow(Tick bound) {
  for (;;) {
    const Tick t = scan_l0(cursor_ > win_start_ ? cursor_ : win_start_);
    if (t != kNoEvent) return t;
    // Window drained: jump to the earliest populated window (L1 or overflow).
    Tick target = next_bucket_base();
    if (!overflow_.empty()) {
      const Tick k = overflow_.begin()->first & ~kSlotMask;
      if (target == kNoEvent || k < target) target = k;
    }
    assert(target != kNoEvent && "size_ > 0 but no events found");
    // Every pending event is at >= target. If that is past the caller's
    // horizon, report "nothing to run" WITHOUT advancing: the caller's clock
    // stops at `bound`, and a committed jump would strand later pushes in
    // [clock, target) behind the window (they'd be filed into the wrong
    // window's slot and fire late).
    if (target > bound) return kNoEvent;
    advance_to(target);
  }
}

void CalendarQueue::save_list(const List& l, std::vector<Snapshot::Item>& out) const {
  for (Handle h = l.head; h != kNil; h = node(h).next) {
    const Node& n = node(h);
    assert(n.ev.clonable() && "pending event not checkpointable");
    out.push_back(Snapshot::Item{n.at, n.ev.clone()});
  }
}

void CalendarQueue::save_state(Snapshot& out) const {
  out.win_start = win_start_;
  out.cursor = cursor_;
  out.l0.clear();
  out.l1.clear();
  out.overflow.clear();
  // win_start_ is kNumSlots-aligned (advance_to masks it), so slot index i
  // holds exactly tick win_start_ + i and index order is tick order.
  assert((win_start_ & kSlotMask) == 0);
  for (const List& l : slots_) save_list(l, out.l0);
  for (const List& l : buckets_) save_list(l, out.l1);
  for (const auto& [at, l] : overflow_) save_list(l, out.overflow);
}

void CalendarQueue::load_state(const Snapshot& s) {
  // Destroy every pending closure and thread all nodes onto the free list,
  // lowest index first; the chunks themselves are kept.
  free_ = kNil;
  for (std::size_t c = chunks_.size(); c-- > 0;)
    for (std::size_t i = kChunkNodes; i-- > 0;) {
      Node& n = chunks_[c][i];
      n.ev.reset();
      n.next = free_;
      free_ = static_cast<Handle>(c * kChunkNodes + i);
    }
  slots_.fill(List{});
  buckets_.fill(List{});
  slot_bits_ = {};
  bucket_bits_ = {};
  overflow_.clear();
  win_start_ = s.win_start;
  cursor_ = s.cursor;
  size_ = s.l0.size() + s.l1.size() + s.overflow.size();
  const auto adopt = [this](const Snapshot::Item& it, List& l) {
    const Handle h = acquire();
    node(h).ev = it.ev.clone();
    node(h).at = it.at;
    append(l, h);
  };
  for (const Snapshot::Item& it : s.l0) {
    assert(it.at >= win_start_ && it.at < win_start_ + Tick(kNumSlots));
    const auto slot = static_cast<std::size_t>(it.at & kSlotMask);
    set_bit(slot_bits_, slot);
    adopt(it, slots_[slot]);
  }
  for (const Snapshot::Item& it : s.l1) {
    const std::size_t b = bucket_index(it.at);
    set_bit(bucket_bits_, b);
    adopt(it, buckets_[b]);
  }
  for (const Snapshot::Item& it : s.overflow) adopt(it, overflow_[it.at]);
}

bool CalendarQueue::audit_identical(const Snapshot& a, const Snapshot& b) {
  if (a.win_start != b.win_start || a.cursor != b.cursor) return false;
  const auto levels_match = [](const std::vector<Snapshot::Item>& x,
                               const std::vector<Snapshot::Item>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].at != y[i].at || !x[i].ev.audit_identical(y[i].ev)) return false;
    return true;
  };
  return levels_match(a.l0, b.l0) && levels_match(a.l1, b.l1) &&
         levels_match(a.overflow, b.overflow);
}

}  // namespace hostnet::sim
