// Chord link construction (Stoica et al., SIGCOMM 2001), in both the flat
// form and the restricted per-ring form that Canon's Crescendo construction
// applies bottom-up (Section 2.1 of the paper).
#ifndef CANON_DHT_CHORD_H
#define CANON_DHT_CHORD_H

#include <cstdint>
#include <limits>

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Sentinel distance limit meaning "no restriction".
inline constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

/// Adds node `m`'s Chord finger links over the members of `ring`: for each
/// 0 <= k < N, the closest member at ring distance >= 2^k (condition (a) of
/// the paper), keeping only links with ring distance strictly below `limit`
/// (condition (b); pass kNoLimit for plain Chord).
void add_chord_fingers(const OverlayNetwork& net, const RingView& ring,
                       std::uint32_t m, std::uint64_t limit, LinkRow& out);

/// Builds the complete flat Chord network over all nodes.
LinkTable build_chord(const OverlayNetwork& net);

}  // namespace canon

#endif  // CANON_DHT_CHORD_H
