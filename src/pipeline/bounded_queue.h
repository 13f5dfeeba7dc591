#ifndef HOTSPOT_PIPELINE_BOUNDED_QUEUE_H_
#define HOTSPOT_PIPELINE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.h"

namespace hotspot::pipeline {

/// Point-in-time accounting of one queue, taken under the queue's lock so
/// the numbers are mutually consistent.
struct QueueStats {
  int capacity = 0;
  int depth = 0;       ///< items currently queued
  int high_water = 0;  ///< max depth ever reached
  uint64_t pushed = 0;
  uint64_t popped = 0;
  /// Push calls that found the queue full and had to wait — the
  /// backpressure events of the stage boundary this queue implements.
  uint64_t push_waits = 0;
  /// Total wall time producers spent blocked in Push.
  double push_blocked_seconds = 0.0;
};

/// Bounded blocking MPSC/MPMC queue — the hand-off between producers and
/// one consumer thread (a pipeline's ingress, the adapt shadow queue). The
/// contract that makes it lossless:
///
///   * Push on a full queue BLOCKS until the consumer has drained it to
///     half its capacity (or the queue is closed); it never drops and
///     never reorders — backpressure propagates upstream instead of data
///     loss propagating downstream.
///   * Pop on an empty open queue blocks until an item arrives; once the
///     queue is closed Pop drains the remaining items and then returns
///     false — the downstream stage's signal to enter its drain state.
///   * Close is idempotent; Push after Close returns false (the caller is
///     shutting down anyway).
///
/// FIFO order is preserved per producer (and totally, with the single
/// producer a pipeline's ingress has), which is what keeps the streaming
/// serving path bitwise-identical to the direct-call path.
/// Plain mutex + two condvars. At row-block granularity the hand-off is
/// not noise next to stage work, so a producer parked on a full queue is
/// woken once the consumer has drained it to capacity / 2, not on every
/// Pop. TryPush ignores the rule: it takes any free slot.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int capacity) : capacity_(capacity) {
    HOTSPOT_CHECK_GE(capacity, 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks on a full queue until it has drained to half. Returns true
  /// when the item was enqueued, false when the queue was closed (item
  /// dropped — only in teardown: only the serving pipeline's producer
  /// side calls Close(), so a drain never loses data).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (static_cast<int>(items_.size()) >= capacity_ && !closed_) {
      ++push_waits_;
      const auto blocked_from = std::chrono::steady_clock::now();
      not_full_.wait(lock, [&] {
        return closed_ || static_cast<int>(items_.size()) <= capacity_ / 2;
      });
      push_blocked_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        blocked_from)
              .count();
    }
    if (closed_) return false;
    Enqueue(std::move(lock), std::move(item));
    return true;
  }

  /// Non-blocking Push: enqueues only when a slot is free right now.
  /// Returns false — leaving `item` untouched — when the queue is full or
  /// closed. This is the admission-control primitive: where Push converts
  /// overload into upstream backpressure, TryPush converts it into an
  /// immediate reject the caller can count and surface.
  bool TryPush(T& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || static_cast<int>(items_.size()) >= capacity_) return false;
    Enqueue(std::move(lock), std::move(item));
    return true;
  }

  /// Blocks while the queue is empty and open. Returns true with an item,
  /// or false, `*out` untouched, once the queue is closed AND drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    // Producers park only on a full queue, so every drain that can release
    // one passes this depth; all wake, as a second one gets no other call.
    const bool wake = static_cast<int>(items_.size()) == capacity_ / 2;
    lock.unlock();
    if (wake) not_full_.notify_all();
    return true;
  }

  /// No more pushes; pending items remain poppable. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  QueueStats Stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    QueueStats stats;
    stats.capacity = capacity_;
    stats.depth = static_cast<int>(items_.size());
    stats.high_water = high_water_;
    stats.pushed = pushed_;
    stats.popped = popped_;
    stats.push_waits = push_waits_;
    stats.push_blocked_seconds = push_blocked_seconds_;
    return stats;
  }

 private:
  /// The one enqueue path: appends under the caller's lock, books the
  /// push and the high-water mark, then wakes the consumer unlocked.
  void Enqueue(std::unique_lock<std::mutex> lock, T&& item) {
    items_.push_back(std::move(item));
    ++pushed_;
    high_water_ = std::max(high_water_, static_cast<int>(items_.size()));
    lock.unlock();
    not_empty_.notify_one();
  }

  const int capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  int high_water_ = 0;
  uint64_t pushed_ = 0;
  uint64_t popped_ = 0;
  uint64_t push_waits_ = 0;
  double push_blocked_seconds_ = 0.0;
};

}  // namespace hotspot::pipeline

#endif  // HOTSPOT_PIPELINE_BOUNDED_QUEUE_H_
