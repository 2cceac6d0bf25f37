#include "dht/kademlia.h"

#include "telemetry/scoped_timer.h"

#include <bit>

#include "dht/xor_util.h"

namespace canon {

namespace {

/// Visits the aligned ranges of the part of bucket k within XOR distance
/// 2^k + radius of m: the XOR ball of that radius around center = m ^ 2^k
/// (every bucket element has bit k flipped). The whole bucket, radius 2^k,
/// is one range; in a 64-bit space its top end 2^64 is never represented.
template <typename Visit>
void for_each_bucket_range(const IdSpace& space, NodeId m_id, int k,
                           std::uint64_t radius, Visit&& visit) {
  for_each_xor_ball_range(space.wrap(m_id ^ (std::uint64_t{1} << k)), radius,
                          space, visit);
}

/// The XOR-closest member of bucket k within XOR distance 2^k + radius of
/// m, or RingView::kNone if that part of the bucket holds none.
std::uint32_t closest_in_bucket(const OverlayNetwork& net,
                                const RingView& ring, NodeId m_id, int k,
                                std::uint64_t radius) {
  const IdSpace& space = net.space();
  std::uint32_t best = RingView::kNone;
  std::uint64_t best_d = kNoLimit;
  for_each_bucket_range(space, m_id, k, radius, [&](const IdRange& r) {
    const std::uint32_t c = xor_closest_in_range(net, ring, r.lo, r.size,
                                                 m_id);
    if (c == RingView::kNone) return;
    const std::uint64_t d = space.xor_distance(m_id, net.id(c));
    if (best == RingView::kNone || d < best_d) {
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
      closest_in_bucket(net, ring, m_id, k, std::uint64_t{1} << k);
  if (c == RingView::kNone) return 0;
  return net.space().xor_distance(m_id, net.id(c));
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
    std::uint64_t radius = bit;  // the whole bucket [2^k, 2^{k+1})
    if ((child.filled & bit) != 0) {
      // The child ring already covers this bucket: no merge link.
      if (policy == MergePolicy::kFrugal) continue;
      // Literal rule: candidates must be strictly closer than every
      // child-ring node within this bucket.
      radius = child.closest[static_cast<std::size_t>(k)] - bit;
    }
    const std::uint32_t v = closest_in_bucket(net, ring, m_id, k, radius);
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
