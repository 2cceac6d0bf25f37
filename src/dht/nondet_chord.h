// Nondeterministic Chord (CFS [4] / Gummadi et al. [5]): for each k, a node
// links to an arbitrary node at ring distance within [2^k, 2^{k+1}) instead
// of the closest node at distance >= 2^k. Section 3.2 of the paper restricts
// the nondeterministic choice to distances below the own-ring successor
// distance when rings are merged; `limit` expresses that restriction.
#ifndef CANON_DHT_NONDET_CHORD_H
#define CANON_DHT_NONDET_CHORD_H

#include <cstdint>

#include "common/rng.h"
#include "dht/chord.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds node `m`'s nondeterministic-Chord links over `ring`: for each k, a
/// uniformly random member at ring distance in [2^k, min(2^{k+1}, limit)).
/// Always links the successor within `ring` when it is inside `limit`, so
/// greedy clockwise routing stays complete.
void add_nondet_chord_links(const OverlayNetwork& net, const RingView& ring,
                            std::uint32_t m, std::uint64_t limit, Rng& rng,
                            LinkRow& out);

/// Builds the complete flat nondeterministic Chord network.
LinkTable build_nondet_chord(const OverlayNetwork& net, Rng& rng);

}  // namespace canon

#endif  // CANON_DHT_NONDET_CHORD_H
