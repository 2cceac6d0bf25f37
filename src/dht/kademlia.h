// Kademlia (Maymounkov & Mazieres, IPTPS 2002): XOR-metric buckets. For
// each 0 <= k < N a node links to the XOR-closest node at XOR distance in
// [2^k, 2^{k+1}); any bucket member would do, and the closest makes the
// table deterministic. One link per bucket: the paper ignores Kademlia's
// per-bucket replication, as we do.
//
// Kandy (Section 3.3) applies the same rule per hierarchy level with the
// nondeterministic-choice caveat of Section 3.2 translated to buckets: when
// rings merge, a node may pick a bucket-k candidate only among nodes
// strictly closer than every node of its own child ring *within that
// bucket*. (A candidate in a bucket that is empty in the child ring is
// always admissible; this keeps every domain's members Kademlia-complete
// among themselves — the invariant hierarchical greedy XOR routing needs —
// while adding no links for buckets the child ring already covers.)
#ifndef CANON_DHT_KADEMLIA_H
#define CANON_DHT_KADEMLIA_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "dht/chord.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// How the Canon merge treats a bucket the child ring already covers.
enum class MergePolicy {
  /// Take a merge link only when the child ring's bucket is empty. Keeps
  /// the degree at the flat-Kademlia level (matching the paper's headline
  /// degree claims) while preserving per-domain bucket completeness.
  kFrugal,
  /// The literal Section 3.3 rule: also take a candidate strictly closer
  /// than the child ring's best in the bucket. Extra links per level,
  /// slightly shorter XOR paths.
  kLiteral,
};

/// Node m's bucket occupancy in its child ring, carried up the domain chain
/// by the Canon merge (Kandy). Domains nest, so a bucket that holds a
/// member of the child ring holds one at every level above it; a fresh
/// value (nothing filled) describes an empty child ring, i.e. a leaf or
/// flat ring.
struct ChildBuckets {
  /// Bit k set: the child ring has a member in bucket k.
  std::uint64_t filled = 0;
  /// MergePolicy::kLiteral only: for each filled bucket, the XOR distance
  /// of the child ring's closest member in it.
  std::array<std::uint64_t, 64> closest{};
};

/// Adds node `m`'s Kademlia bucket links over `ring` (which contains m):
/// in each bucket, the XOR-closest admissible member. `child` describes
/// m's child ring, a subset of `ring`; its buckets are filtered per
/// `MergePolicy` (see above). On return `child` describes `ring` itself,
/// ready for the next level up. Only buckets that can yield a link are
/// searched: none below the lowest non-empty one and, under kFrugal, none
/// the child ring fills.
void add_kademlia_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, ChildBuckets& child,
                        MergePolicy policy, LinkRow& out);

/// XOR distance from `m` to its closest other member of `ring`
/// (kNoLimit if `ring` holds only m).
std::uint64_t closest_xor_distance(const OverlayNetwork& net,
                                   const RingView& ring, std::uint32_t m);

/// XOR distance from id `m_id` to the closest member of `ring` within the
/// bucket [2^k, 2^{k+1}), or 0 if that bucket is empty: no member's
/// distance is 0, while the top bucket of a 64-bit space holds 2^64 - 1.
std::uint64_t bucket_closest_distance(const OverlayNetwork& net,
                                      const RingView& ring, NodeId m_id,
                                      int k);

/// Builds the complete flat Kademlia network.
LinkTable build_kademlia(const OverlayNetwork& net);

}  // namespace canon

#endif  // CANON_DHT_KADEMLIA_H
