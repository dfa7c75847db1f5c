// ring_buffer.hpp — bounded FIFO used by the packet queue.
//
// Header-only template: contiguous storage, O(1) push/pop.  Capacity is
// a runtime constructor argument because buffer size is a simulation
// parameter (Table II).  Storage grows on demand, doubling up to that
// capacity, so a node whose queue never fills pays only for the depth
// it reaches: a 10k-node field would otherwise zero-fill 20 MB of
// packet slots it never uses.  capacity() is the configured limit, and
// pushes fail at it exactly as with fixed storage.  A growth step
// reallocates, so a push invalidates references into the buffer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace caem::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer: capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Push to the back; returns false (and drops the value) when full.
  bool try_push(T value) {
    if (full()) return false;
    if (size_ == storage_.size()) grow();
    storage_[(head_ + size_) % storage_.size()] = std::move(value);
    ++size_;
    return true;
  }

  /// Front element; throws std::out_of_range when empty.
  [[nodiscard]] T& front() {
    if (empty()) throw std::out_of_range("RingBuffer: front() on empty buffer");
    return storage_[head_];
  }
  [[nodiscard]] const T& front() const {
    if (empty()) throw std::out_of_range("RingBuffer: front() on empty buffer");
    return storage_[head_];
  }

  /// i-th element from the front (0 == front); throws when out of range.
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("RingBuffer: index out of range");
    return storage_[(head_ + i) % storage_.size()];
  }

  /// Push to the front (re-queue); returns false when full.
  bool try_push_front(T value) {
    if (full()) return false;
    if (size_ == storage_.size()) grow();
    head_ = (head_ + storage_.size() - 1) % storage_.size();
    storage_[head_] = std::move(value);
    ++size_;
    return true;
  }

  /// Pop from the front; throws std::out_of_range when empty.
  T pop() {
    if (empty()) throw std::out_of_range("RingBuffer: pop() on empty buffer");
    T value = std::move(storage_[head_]);
    head_ = (head_ + 1) % storage_.size();
    --size_;
    return value;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinStorage = 4;

  // Re-lay the queued elements out front-first in storage twice the
  // size (at least kMinStorage, at most the capacity).
  void grow() {
    const std::size_t next_size = std::min(capacity_, std::max(kMinStorage, 2 * storage_.size()));
    std::vector<T> next;
    next.reserve(next_size);
    for (std::size_t i = 0; i < size_; ++i) {
      next.push_back(std::move(storage_[(head_ + i) % storage_.size()]));
    }
    next.resize(next_size);
    storage_.swap(next);
    head_ = 0;
  }

  std::size_t capacity_;
  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace caem::util
