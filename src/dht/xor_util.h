// XOR-metric range utilities shared by the Kademlia/CAN families.
//
// The set {x : xor(center, x) < radius} (an "XOR ball") is a union of at
// most `bits` aligned, contiguous ID ranges — one per set bit of `radius`.
// Decomposing it lets bucket queries with a Canon distance limit run as a
// handful of binary searches over ID-sorted member lists; a whole Kademlia
// bucket (radius 2^k) is a single aligned range.
#ifndef CANON_DHT_XOR_UTIL_H
#define CANON_DHT_XOR_UTIL_H

#include <bit>
#include <cstdint>

#include "common/ids.h"
#include "overlay/overlay_network.h"

namespace canon {

struct IdRange {
  NodeId lo = 0;           ///< inclusive start (aligned to `size`)
  std::uint64_t size = 0;  ///< power of two
};

/// Calls `visit(IdRange)` for each aligned range covering
/// {x in [0,2^bits) : xor(center, x) < radius}, largest range first,
/// without allocating. `radius` is clamped to the space size; radius 0
/// visits nothing.
template <typename Visit>
void for_each_xor_ball_range(NodeId center, std::uint64_t radius,
                             const IdSpace& space, Visit&& visit) {
  if (radius == 0) return;
  // Clamp: a radius covering the whole space is the single full range.
  if (space.bits() < 64 && radius >= (std::uint64_t{1} << space.bits())) {
    visit(IdRange{0, std::uint64_t{1} << space.bits()});
    return;
  }
  center = space.wrap(center);
  // One aligned block per set bit b of `radius`: distances d that agree with
  // radius above bit b and have bit b clear; the low b bits of x are free.
  for (std::uint64_t rest = radius; rest != 0;) {
    const std::uint64_t block = std::bit_floor(rest);  // 2^b
    rest ^= block;
    const std::uint64_t d_fixed = radius & ~(block | (block - 1));
    const NodeId lo = (center ^ d_fixed) & ~(block - 1);
    visit(IdRange{space.wrap(lo), block});
  }
}

/// The member of `ring` inside [lo, lo+size) minimizing XOR distance to
/// `key`, or RingView::kNone if the range holds no member. The range must
/// be aligned (lo % size == 0) and size a power of two. Searches only the
/// range's own positions in `ring` (a member list of `net`).
std::uint32_t xor_closest_in_range(const OverlayNetwork& net,
                                   const RingView& ring, NodeId lo,
                                   std::uint64_t size, NodeId key);

}  // namespace canon

#endif  // CANON_DHT_XOR_UTIL_H
