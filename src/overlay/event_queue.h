// The discrete-event simulator's clock: a stable monotone radix queue.
//
// MessageSimulator never schedules an event before the one it is
// handling, so its queue only has to be *monotone*: every push carries a
// key at or after the last popped one. That admits a radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990) in place of a binary heap:
//
// * A key is the order-preserving 64-bit pattern of an event time
//   (time_key below); -0.0 folds into +0.0.
// * Bucket b > 0 holds the events whose key first differs from the last
//   popped key at bit b-1. Bucket 0 holds the events at exactly that key,
//   in push order, and pop() drains it front to back.
// * When bucket 0 is empty, the lowest non-empty bucket is redistributed,
//   in order, around its least key. Every event in it lands in a strictly
//   lower bucket, so an event moves at most 64 times (6.4 on average over
//   the ablation_congestion sweep).
//
// Stability: equal keys always share a bucket, a bucket keeps its events
// in arrival order, and redistribution preserves that order. Events with
// equal keys therefore pop in push order — the (time, sequence) order of
// a binary heap with a push counter as tie-break, with no counter stored.
#ifndef CANON_OVERLAY_EVENT_QUEUE_H
#define CANON_OVERLAY_EVENT_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace canon {

/// Order-preserving key of a time: for non-NaN a and b, a < b iff
/// time_key(a) < time_key(b). -0.0 and +0.0 share one key.
inline std::uint64_t time_key(double t) {
  if (t == 0) t = 0.0;  // fold -0.0
  const auto bits = std::bit_cast<std::uint64_t>(t);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) ? ~bits : bits | kSign;
}

/// Inverse of time_key (a -0.0 comes back as +0.0).
inline double key_time(std::uint64_t key) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return std::bit_cast<double>((key & kSign) ? key & ~kSign : ~key);
}

/// `Event` carries its time as `std::uint64_t key` (time_key); the rest
/// is payload the queue copies but never reads.
template <class Event>
class MonotoneEventQueue {
 public:
  /// Throws std::invalid_argument on a key before the last popped one:
  /// the queue cannot order it, and a clock never runs backwards.
  void push(const Event& ev) {
    if (ev.key < last_) {
      throw std::invalid_argument(
          "MonotoneEventQueue::push: event before the last popped one");
    }
    place(ev);
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Removes the least-key event; among equal keys, the earliest pushed.
  /// Precondition: !empty().
  Event pop() {
    if (head_ == buckets_[0].size()) refill();
    --size_;
    return buckets_[0][head_++];
  }

 private:
  void place(const Event& ev) {
    const int b = std::bit_width(ev.key ^ last_);
    buckets_[static_cast<std::size_t>(b)].push_back(ev);
    if (b > 0) occupied_ |= std::uint64_t{1} << (b - 1);
  }

  /// Bucket 0 is drained: re-centre on the least key of the lowest
  /// non-empty bucket and spread that bucket, in order, below it.
  void refill() {
    buckets_[0].clear();
    head_ = 0;
    const int b = std::countr_zero(occupied_) + 1;
    occupied_ &= occupied_ - 1;
    std::vector<Event>& from = buckets_[static_cast<std::size_t>(b)];
    std::uint64_t least = from.front().key;
    for (const Event& ev : from) least = std::min(least, ev.key);
    last_ = least;
    for (const Event& ev : from) place(ev);
    // Only a batch pushed up front (every lookup is submitted before the
    // run) fills the top buckets, once: a bucket that outgrew the whole
    // queue hands its storage back rather than holding it for good.
    if (from.capacity() > size_) {
      std::vector<Event>().swap(from);
    } else {
      from.clear();
    }
  }

  std::array<std::vector<Event>, 65> buckets_;
  std::size_t head_ = 0;         ///< next pop in bucket 0
  std::uint64_t occupied_ = 0;   ///< bit b-1 set iff bucket b is non-empty
  std::uint64_t last_ = 0;       ///< key of the last popped event
  std::size_t size_ = 0;
};

}  // namespace canon

#endif  // CANON_OVERLAY_EVENT_QUEUE_H
