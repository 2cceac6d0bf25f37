// Symphony (Manku, Bawa, Raghavan; USITS 2003): each node draws
// floor(log2 n) long links with harmonic distance distribution
// p(x) ~ 1/(x ln n) over ring fractions x in [1/n, 1], plus a successor
// link. Section 3.1 of the paper builds Cacophony by running the same draw
// per hierarchy level and keeping only links closer than the lower-level
// successor.
#ifndef CANON_DHT_SYMPHONY_H
#define CANON_DHT_SYMPHONY_H

#include <cstdint>

#include "common/rng.h"
#include "dht/chord.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds node `m`'s Symphony links over `ring`: `draws` harmonic-distance
/// draws (targets resolved to the manager of the drawn point), keeping only
/// links with ring distance in (0, limit); plus the successor within `ring`
/// when closer than `limit`. If `draws` is negative, floor(log2(ring size))
/// draws are used.
void add_symphony_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, std::uint64_t limit, int draws,
                        Rng& rng, LinkRow& out);

/// Builds the complete flat Symphony network.
LinkTable build_symphony(const OverlayNetwork& net, Rng& rng);

}  // namespace canon

#endif  // CANON_DHT_SYMPHONY_H
