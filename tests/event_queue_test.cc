// Tests for the simulator's stable monotone radix queue
// (overlay/event_queue.h): the order-preserving time key, and pop order
// against the reference it replaces — a binary heap of (time, push
// sequence) — on a fixed case of edge times and on a seeded run of 10^5
// mixed operations whose times sit on a coarse grid, so ties are common.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "overlay/event_queue.h"

namespace canon {
namespace {

struct Item {
  std::uint64_t key = 0;
  std::uint32_t seq = 0;
};

/// Drives the radix queue and the (time, seq) heap side by side and
/// checks every pop against the heap.
class Differential {
 public:
  void push(double t) {
    queue_.push(Item{time_key(t), next_seq_});
    reference_.emplace(t, next_seq_);
    ++next_seq_;
  }

  /// Pops both; returns the popped time.
  double pop() {
    EXPECT_FALSE(queue_.empty());
    EXPECT_FALSE(reference_.empty());
    const Item got = queue_.pop();
    const auto [t, seq] = reference_.top();
    reference_.pop();
    EXPECT_EQ(key_time(got.key), t) << "seq " << seq;  // -0.0 == 0.0
    EXPECT_EQ(got.seq, seq) << "at t=" << t;
    EXPECT_EQ(queue_.size(), reference_.size());
    return t;
  }

  bool empty() const { return queue_.empty(); }

  void drain() {
    while (!reference_.empty()) pop();
    EXPECT_TRUE(queue_.empty());
  }

 private:
  MonotoneEventQueue<Item> queue_;
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>,
                      std::greater<>>
      reference_;
  std::uint32_t next_seq_ = 0;
};

TEST(EventQueue, TimeKeyPreservesOrderAndRoundTrips) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const double ordered[] = {-kInf, -1e300, -1.0, -kTiny, 0.0,
                            kTiny, 1e-300, 0.25,  1.0,   1e300, kInf};
  for (std::size_t i = 0; i + 1 < std::size(ordered); ++i) {
    EXPECT_LT(time_key(ordered[i]), time_key(ordered[i + 1])) << i;
  }
  for (const double t : ordered) EXPECT_EQ(key_time(time_key(t)), t);
  EXPECT_EQ(time_key(-0.0), time_key(0.0));
  EXPECT_FALSE(std::signbit(key_time(time_key(-0.0))));
}

TEST(EventQueue, MatchesTimeSeqHeapOnEdgeTimes) {
  const double kTiny = std::numeric_limits<double>::denorm_min();
  Differential d;
  for (const double t : {5.0, 5.0, 0.0, -0.0, 1e300, kTiny, 1e-300, 0.0,
                         5.0, 1e300, -0.0}) {
    d.push(t);
  }
  EXPECT_EQ(d.pop(), 0.0);  // the first of four zeros, in push order
  d.push(0.0);              // at the current time: behind the other zeros
  d.push(-0.0);
  d.push(kTiny);
  EXPECT_EQ(d.pop(), 0.0);
  EXPECT_EQ(d.pop(), 0.0);
  d.push(0.0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(d.pop(), 0.0);
  EXPECT_EQ(d.pop(), kTiny);
  EXPECT_EQ(d.pop(), kTiny);  // pushed after the clock reached zero
  EXPECT_EQ(d.pop(), 1e-300);
  EXPECT_EQ(d.pop(), 5.0);
  d.push(5.0);  // between pops at 5.0: behind the two still queued
  d.push(1e300);
  d.push(5.0 + 1e-12);
  d.drain();
}

TEST(EventQueue, MatchesTimeSeqHeapOnRandomizedOps) {
  // 10^5 operations, about 55% pushes. Each push lands 0..15 quarter-ms
  // grid steps after the current time (one in sixteen exactly at it),
  // with an occasional long jump, so equal times are the common case.
  Rng rng(0x5eed);
  Differential d;
  double now = 0;
  std::size_t pushes = 0;
  for (int op = 0; op < 100000; ++op) {
    if (d.empty() || rng.uniform(100) < 55) {
      double t = now + 0.25 * static_cast<double>(rng.uniform(16));
      if (rng.uniform(1000) == 0) t += 1e6;
      d.push(t);
      ++pushes;
    } else {
      now = d.pop();
    }
  }
  d.drain();
  EXPECT_GT(pushes, 50000u);
}

TEST(EventQueue, RejectsAKeyBehindTheLastPop) {
  MonotoneEventQueue<Item> q;
  q.push(Item{time_key(2.0), 0});
  q.push(Item{time_key(1.0), 1});  // ahead of every pop so far: fine
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_THROW(q.push(Item{time_key(0.5), 2}), std::invalid_argument);
  q.push(Item{time_key(1.0), 3});  // at the clock: fine
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace canon
