// Kandy: the Canonical version of Kademlia (Section 3.3).
//
// Within its leaf domain a node keeps plain Kademlia bucket links. At each
// higher level it applies the Kademlia rule over the enclosing domain's
// members but throws away any candidate whose XOR distance exceeds the
// distance of the closest node in its own child domain (the shortest link
// it can possess at the lower level).
//
// The child ring is never searched again: domains nest, so a bucket that
// holds a member of the child ring holds one at every level above it.
// add_kandy_links walks m's domain chain from the leaf up with one
// ChildBuckets value (dht/kademlia.h) that each level reads as its child
// filter and leaves describing its own ring: a mask of filled buckets
// under MergePolicy::kFrugal, plus each bucket's closest distance under
// kLiteral.
#ifndef CANON_CANON_KANDY_H
#define CANON_CANON_KANDY_H

#include "common/rng.h"
#include "dht/kademlia.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds all of node `m`'s Kandy links.
void add_kandy_links(const OverlayNetwork& net, std::uint32_t m,
                     BucketChoice choice, MergePolicy policy, Rng& rng,
                     LinkRow& out);

/// Builds the complete Kandy network. Flat populations yield plain
/// Kademlia.
LinkTable build_kandy(const OverlayNetwork& net, BucketChoice choice,
                      Rng& rng, MergePolicy policy = MergePolicy::kFrugal);

}  // namespace canon

#endif  // CANON_CANON_KANDY_H
