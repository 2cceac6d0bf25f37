// Crescendo: the Canonical (hierarchical) version of Chord (Section 2).
//
// Construction runs bottom-up over the conceptual hierarchy. Within its
// leaf domain a node keeps plain Chord fingers. At each higher level, the
// child rings merge: a node links to a node of the enclosing ring iff
//   (a) it is the closest node at ring distance >= 2^k for some k
//       (the Chord rule over the merged member set), and
//   (b) it is strictly closer than every node of the node's own child ring
//       (equivalently: closer than the child-ring successor).
// The result is that each domain's nodes form a complete Crescendo ring of
// their own, giving intra-domain path locality and inter-domain path
// convergence under plain greedy clockwise routing.
#ifndef CANON_CANON_CRESCENDO_H
#define CANON_CANON_CRESCENDO_H

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds all of node `m`'s Crescendo links (every hierarchy level).
void add_crescendo_links(const OverlayNetwork& net, NodeIndex m,
                         LinkRow& out);

/// Builds the complete Crescendo network. With a flat population this is
/// exactly Chord. `on_shard` is LinkTable::build's progress hook (never
/// influences the table); the resource observatory samples the RSS
/// timeline through it.
LinkTable build_crescendo(const OverlayNetwork& net,
                          const LinkTable::ShardProgress& on_shard = {});

/// Forwards to build_crescendo. Kept only for the repository benchmark's
/// build workload (perfbench/workloads.cc), which calls it by name; it goes
/// with the next change to the benchmark.
LinkTable build_crescendo_streamed(const OverlayNetwork& net);

}  // namespace canon

#endif  // CANON_CANON_CRESCENDO_H
