#include "obs/flight_recorder.h"

#include <thread>

namespace hotspot::obs {

namespace {

uint64_t RoundUpPow2(uint64_t n) {
  uint64_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(int capacity)
    : slots_(RoundUpPow2(capacity < 2 ? 2 : static_cast<uint64_t>(capacity))),
      epoch_(std::chrono::steady_clock::now()) {
  mask_ = slots_.size() - 1;
}

uint64_t FlightRecorder::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::Record(FlightEventKind kind, int64_t a, int64_t b,
                            int64_t c, double d) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  const uint64_t writing = ticket * 2 + 1;
  // Claim the slot: only from an even (empty or complete) sequence of an
  // older ticket. A newer ticket already there means a writer one lap
  // ahead overtook this one, and this event is outside the retained window.
  // The acquire pairs with the previous owner's final release, so its
  // payload stores come before ours in every field's modification order.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seq > writing) return;
    if ((seq & 1) != 0) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seq, writing,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  // Release payload stores: a reader that copies any of them also sees
  // the odd mark above when it re-validates, and rejects the slot.
  slot.t_ns.store(NowNs(), std::memory_order_release);
  slot.kind.store(static_cast<int>(kind), std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.c.store(c, std::memory_order_release);
  slot.d.store(d, std::memory_order_release);
  // Publication: synchronizes with a reader's first acquire load.
  slot.seq.store(writing + 1, std::memory_order_release);
}

uint64_t FlightRecorder::dropped() const {
  const uint64_t recorded_total = recorded();
  const uint64_t cap = capacity();
  return recorded_total > cap ? recorded_total - cap : 0;
}

bool FlightRecorder::ReadSlot(uint64_t ticket,
                              FlightEventRecord* out) const {
  const Slot& slot = slots_[ticket & mask_];
  const uint64_t want = ticket * 2 + 2;
  if (slot.seq.load(std::memory_order_acquire) != want) return false;
  out->sequence = ticket;
  out->t_ns = slot.t_ns.load(std::memory_order_acquire);
  out->kind =
      static_cast<FlightEventKind>(slot.kind.load(std::memory_order_acquire));
  out->a = slot.a.load(std::memory_order_acquire);
  out->b = slot.b.load(std::memory_order_acquire);
  out->c = slot.c.load(std::memory_order_acquire);
  out->d = slot.d.load(std::memory_order_acquire);
  // Re-validate: a lapping writer that touched the slot mid-copy left a
  // different (or odd) sequence behind, and the copy above is torn.
  return slot.seq.load(std::memory_order_acquire) == want;
}

std::vector<FlightEventRecord> FlightRecorder::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t cap = capacity();
  const uint64_t begin = head > cap ? head - cap : 0;
  std::vector<FlightEventRecord> events;
  events.reserve(static_cast<size_t>(head - begin));
  for (uint64_t ticket = begin; ticket < head; ++ticket) {
    FlightEventRecord record;
    if (ReadSlot(ticket, &record)) events.push_back(record);
  }
  return events;
}

void FlightRecorder::Reset() {
  head_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.seq.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hotspot::obs
