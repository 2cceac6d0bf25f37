// Cacophony: the Canonical version of Symphony (Section 3.1).
//
// Within its leaf domain (n_l members) a node draws floor(log2 n_l)
// harmonic long links plus its successor. At each higher level with n_{l-1}
// members it draws floor(log2 n_{l-1}) links by the same process but keeps
// only those closer than its successor at the lower level, and always links
// its successor at the new level.
#ifndef CANON_CANON_CACOPHONY_H
#define CANON_CANON_CACOPHONY_H

#include "common/rng.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Adds all of node `m`'s Cacophony links.
void add_cacophony_links(const OverlayNetwork& net, std::uint32_t m, Rng& rng,
                         LinkRow& out);

/// Builds the complete Cacophony network. With a flat population this is
/// exactly Symphony.
LinkTable build_cacophony(const OverlayNetwork& net, Rng& rng);

}  // namespace canon

#endif  // CANON_CANON_CACOPHONY_H
