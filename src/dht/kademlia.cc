#include "dht/kademlia.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <bit>

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

/// The XOR-closest member of the bucket {x : xor(m, x) in [2^k, hi)}, or
/// RingView::kNone if it holds none.
std::uint32_t closest_in_bucket(const OverlayNetwork& net,
                                const RingView& ring, NodeId m_id, int k,
                                std::uint64_t hi) {
  const IdSpace& space = net.space();
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
      closest_in_bucket(net, ring, m_id, k, bucket_top(net.space(), k));
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
                        MergePolicy policy, LinkRow& out) {
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
    const std::uint32_t v = closest_in_bucket(net, ring, m_id, k, hi);
    if (v == RingView::kNone) continue;
    out.push_back(v);
    // Leave `ring`'s bucket state for the level above: this bucket is
    // filled, and under the literal rule its closest member now beats the
    // child's.
    child.filled |= bit;
    if (policy == MergePolicy::kLiteral) {
      child.closest[static_cast<std::size_t>(k)] =
          space.xor_distance(m_id, net.id(v));
    }
  }
}

LinkTable build_kademlia(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.kademlia_ms");
  const RingView ring = net.ring();
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    ChildBuckets flat;  // no child ring: nothing filled
    add_kademlia_links(net, ring, m, flat, MergePolicy::kFrugal, row);
  });
}

}  // namespace canon
