// Reusable FIFO ring buffer for the device-model hot paths.
//
// std::deque allocates/frees fixed-size blocks as elements flow through, so
// a steady per-line stream (CHA transit queues, blocked-request lists, IIO
// waiter lists) keeps the allocator on the critical path. RingBuffer keeps
// one power-of-two array that is retained across drain/refill cycles:
// after warm-up, push/pop are a store/mask each and the steady state
// performs zero allocations. Capacity grows by doubling (amortized O(1));
// it never shrinks, which is exactly the reuse we want for queues whose
// occupancy oscillates with load.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace hostnet {

template <typename T>
class RingBuffer {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// i-th element from the front (0 = front).
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }
  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }

  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask()] = std::move(v);
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    buf_[head_] = T{};  // drop any held resources eagerly
    head_ = (head_ + 1) & mask();
    --count_;
  }

  /// Insert `v` so it becomes the `pos`-th element from the front, shifting
  /// later elements back by one. O(size - pos); used only on rare control
  /// paths (e.g. peripheral-write priority insertion), never per line.
  void insert(std::size_t pos, T v) {
    assert(pos <= count_);
    if (count_ == buf_.size()) grow();
    ++count_;
    for (std::size_t i = count_ - 1; i > pos; --i)
      buf_[(head_ + i) & mask()] = std::move(buf_[(head_ + i - 1) & mask()]);
    buf_[(head_ + pos) & mask()] = std::move(v);
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

  /// Logical equality: the same elements in the same FIFO order. Capacity
  /// and the physical head position are storage, not contents.
  bool operator==(const RingBuffer& o) const {
    if (count_ != o.count_) return false;
    for (std::size_t i = 0; i < count_; ++i)
      if (!((*this)[i] == o[i])) return false;
    return true;
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }

  void grow() {
    const std::size_t old_cap = buf_.size();
    const std::size_t new_cap = old_cap == 0 ? 8 : old_cap * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (old_cap - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hostnet
