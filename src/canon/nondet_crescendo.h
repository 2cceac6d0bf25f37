// Nondeterministic Crescendo (Section 3.2): Crescendo with the
// nondeterministic-Chord link rule. When rings merge, a node exercises its
// per-bucket random choice only among nodes strictly closer than the
// closest node of its own child ring.
#ifndef CANON_CANON_NONDET_CRESCENDO_H
#define CANON_CANON_NONDET_CRESCENDO_H

#include "common/rng.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds all of node `m`'s nondeterministic-Crescendo links.
void add_nondet_crescendo_links(const OverlayNetwork& net, std::uint32_t m,
                                Rng& rng, LinkRow& out);

/// Builds the complete network. Flat populations yield plain
/// nondeterministic Chord.
LinkTable build_nondet_crescendo(const OverlayNetwork& net, Rng& rng);

}  // namespace canon

#endif  // CANON_CANON_NONDET_CRESCENDO_H
