// The Canon merge walk (Section 2.1), shared by every Canonical builder.
//
// A node's Canonical links come from one bottom-up pass over its domain
// chain: the flat DHT's link rule runs inside the leaf domain, then at every
// enclosing domain the same rule runs over the merged ring, keeping only the
// links that satisfy condition (b) — strictly closer than the node's
// successor in its own child ring. Crescendo, Cacophony, nondeterministic
// Crescendo, clique-Crescendo, Crescendo (Prox.), Kandy and Can-Can differ
// only in the rule each level applies; the walk and the limit live here.
#ifndef CANON_CANON_MERGE_H
#define CANON_CANON_MERGE_H

#include <cstdint>
#include <optional>
#include <span>

#include "dht/chord.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Calls `visit(level, ring, child)` for each domain of node `m`, from its
/// leaf domain up to the root: `ring` is the domain's member ring at depth
/// `level`, `child` the ring one level down (m's own child ring), or
/// nullptr at the leaf.
template <typename Visit>
void for_each_merge_level(const OverlayNetwork& net, NodeIndex m,
                          Visit&& visit) {
  const std::span<const std::int32_t> chain = net.domains().domain_chain(m);
  std::optional<RingView> child;
  for (auto level = static_cast<int>(chain.size()) - 1; level >= 0; --level) {
    const RingView ring =
        net.domain_ring(chain[static_cast<std::size_t>(level)]);
    visit(level, ring, child ? &*child : nullptr);
    child = ring;
  }
}

/// Condition (b): node m's successor distance in its child ring, or
/// kNoLimit at the leaf (no child ring). Merge links must be strictly
/// closer than this.
inline std::uint64_t merge_limit(const OverlayNetwork& net, NodeIndex m,
                                 const RingView* child) {
  return child == nullptr ? kNoLimit : child->successor_distance(net.id(m));
}

}  // namespace canon

#endif  // CANON_CANON_MERGE_H
