#include "dht/kademlia.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "dht/xor_util.h"

namespace canon {

namespace {

std::uint64_t bucket_top(const IdSpace& space, int k) {
  return k + 1 >= space.bits() ? (space.mask() + (space.bits() == 64 ? 0 : 1))
                               : (std::uint64_t{1} << (k + 1));
}

/// Visits the aligned ranges of the bucket {x : xor(m, x) in [2^k, hi)}:
/// the XOR ball of radius hi - 2^k around center = m ^ 2^k (every bucket
/// element has bit k flipped). A whole bucket is one range.
template <typename Visit>
void for_each_bucket_range(const IdSpace& space, NodeId m_id, int k,
                           std::uint64_t hi, Visit&& visit) {
  const std::uint64_t lo = std::uint64_t{1} << k;
  if (hi <= lo) return;
  for_each_xor_ball_range(space.wrap(m_id ^ lo), hi - lo, space, visit);
}

/// Picks a member from the bucket {x : xor(m, x) in [2^k, hi)}.
std::uint32_t pick_in_bucket(const OverlayNetwork& net, const RingView& ring,
                             NodeId m_id, int k, std::uint64_t hi,
                             BucketChoice choice, Rng* rng) {
  const IdSpace& space = net.space();
  if (choice == BucketChoice::kClosest) {
    std::uint32_t best = RingView::kNone;
    std::uint64_t best_d = kNoLimit;
    for_each_bucket_range(space, m_id, k, hi, [&](const IdRange& r) {
      const std::uint32_t c = xor_closest_in_range(net, ring, r.lo, r.size,
                                                   m_id);
      if (c == RingView::kNone) return;
      const std::uint64_t d = space.xor_distance(m_id, net.id(c));
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    });
    return best;
  }

  // Uniform choice across the union of ranges (ranges are disjoint).
  std::size_t total = 0;
  for_each_bucket_range(space, m_id, k, hi, [&](const IdRange& r) {
    total += ring.count_in(r.lo, r.size);
  });
  if (total == 0) return RingView::kNone;
  if (rng == nullptr) {
    throw std::logic_error("pick_in_bucket: kRandom requires an Rng");
  }
  std::size_t pick = rng->uniform(total);
  std::uint32_t picked = RingView::kNone;
  for_each_bucket_range(space, m_id, k, hi, [&](const IdRange& r) {
    if (picked != RingView::kNone) return;
    const std::size_t c = ring.count_in(r.lo, r.size);
    if (pick < c) {
      picked = ring.select_in(r.lo, r.size, pick);
    } else {
      pick -= c;
    }
  });
  return picked;
}

/// The lowest non-empty bucket of `ring` around `m_id`, or the space's bit
/// count if `ring` holds no other member. The members sharing the longest
/// ID prefix with m sit next to m's position in ID order, so m's ring
/// predecessor or successor lies in that bucket.
int lowest_bucket(const OverlayNetwork& net, const RingView& ring,
                  NodeId m_id) {
  const std::size_t n = ring.size();
  std::uint64_t best = 0;  // 0: no other member seen yet
  if (n > 0) {
    const std::size_t pos = ring.successor_pos(m_id);
    for (const std::size_t p : {pos + n - 1, pos, pos + 1}) {
      const std::uint64_t d =
          net.space().xor_distance(m_id, net.id(ring.at(p % n)));
      if (d != 0 && (best == 0 || d < best)) best = d;
    }
  }
  return best == 0 ? net.space().bits() : std::bit_width(best) - 1;
}

}  // namespace

std::uint64_t bucket_closest_distance(const OverlayNetwork& net,
                                      const RingView& ring, NodeId m_id,
                                      int k) {
  const std::uint32_t c =
      pick_in_bucket(net, ring, m_id, k, bucket_top(net.space(), k),
                     BucketChoice::kClosest, nullptr);
  if (c == RingView::kNone) return kNoLimit;
  return net.space().xor_distance(m_id, net.id(c));
}

std::size_t bucket_count(const OverlayNetwork& net, const RingView& ring,
                         NodeId m_id, int k) {
  std::size_t count = 0;
  for_each_bucket_range(net.space(), m_id, k, bucket_top(net.space(), k),
                        [&](const IdRange& r) {
                          count += ring.count_in(r.lo, r.size);
                        });
  return count;
}

std::uint64_t closest_xor_distance(const OverlayNetwork& net,
                                   const RingView& ring, std::uint32_t m) {
  // The XOR-closest member lies in the lowest non-empty bucket.
  const int k = lowest_bucket(net, ring, net.id(m));
  if (k == net.space().bits()) return kNoLimit;
  return bucket_closest_distance(net, ring, net.id(m), k);
}

void add_kademlia_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, ChildBuckets& child,
                        BucketChoice choice, MergePolicy policy, Rng& rng,
                        LinkRow& out, int replication) {
  if (replication < 1) {
    throw std::invalid_argument("add_kademlia_links: replication < 1");
  }
  const IdSpace& space = net.space();
  const NodeId m_id = net.id(m);
  // Buckets below the lowest non-empty one hold no member and draw nothing.
  for (int k = lowest_bucket(net, ring, m_id); k < space.bits(); ++k) {
    const std::uint64_t bit = std::uint64_t{1} << k;
    std::uint64_t hi = bucket_top(space, k);
    if ((child.filled & bit) != 0) {
      // The child ring already covers this bucket: no merge link.
      if (policy == MergePolicy::kFrugal) continue;
      // Literal rule: candidates must be strictly closer than every
      // child-ring node within this bucket.
      hi = std::min(hi, child.closest[static_cast<std::size_t>(k)]);
    }
    const std::uint32_t v =
        pick_in_bucket(net, ring, m_id, k, hi, choice, &rng);
    if (v == RingView::kNone) continue;
    out.push_back(v);
    // Extra bucket entries for resilience (LinkTable::build collapses
    // repeats, so small buckets simply fill up).
    for (int extra = 1; extra < replication; ++extra) {
      const std::uint32_t w =
          pick_in_bucket(net, ring, m_id, k, hi, BucketChoice::kRandom, &rng);
      if (w != RingView::kNone && w != m) out.push_back(w);
    }
    // Leave `ring`'s bucket state for the level above: this bucket is
    // filled, and under the literal rule its closest member now beats the
    // child's.
    child.filled |= bit;
    if (policy == MergePolicy::kLiteral) {
      const std::uint32_t c =
          choice == BucketChoice::kClosest
              ? v
              : pick_in_bucket(net, ring, m_id, k, hi, BucketChoice::kClosest,
                               nullptr);
      child.closest[static_cast<std::size_t>(k)] =
          space.xor_distance(m_id, net.id(c));
    }
  }
}

LinkTable build_kademlia(const OverlayNetwork& net, BucketChoice choice,
                         Rng& rng, int replication) {
  telemetry::ScopedTimer timer("build.kademlia_ms");
  const RingView ring = net.ring();
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    ChildBuckets flat;  // no child ring: nothing filled
    add_kademlia_links(net, ring, m, flat, choice, MergePolicy::kFrugal,
                       node_rng, row, replication);
  });
}

}  // namespace canon
