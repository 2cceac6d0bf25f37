#include "dht/nondet_chord.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>

namespace canon {

void add_nondet_chord_links(const OverlayNetwork& net, const RingView& ring,
                            std::uint32_t m, std::uint64_t limit, Rng& rng,
                            LinkRow& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);

  // Successor link (distance >= 1), required for routing completeness.
  const std::uint64_t succ_dist = ring.successor_distance(mid);
  if (succ_dist == std::numeric_limits<std::uint64_t>::max()) return;
  if (succ_dist < limit) out.push_back(ring.first_at_distance(mid, 1));

  // Every bucket below the successor's is empty and draws nothing.
  for (int k = floor_log2(succ_dist); k < space.bits(); ++k) {
    const std::uint64_t lo_dist = std::uint64_t{1} << k;
    if (lo_dist >= limit) break;
    const std::uint64_t hi_dist =
        std::min(limit, k + 1 >= space.bits()
                            ? (space.mask() + (space.bits() == 64 ? 0 : 1))
                            : (std::uint64_t{1} << (k + 1)));
    if (hi_dist <= lo_dist) continue;
    const NodeId start = space.advance(mid, lo_dist);
    const std::size_t count = ring.count_in(start, hi_dist - lo_dist);
    if (count == 0) continue;
    out.push_back(ring.select_in(start, hi_dist - lo_dist, rng.uniform(count)));
  }
}

LinkTable build_nondet_chord(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.nondet_chord_ms");
  const RingView ring = net.ring();
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_nondet_chord_links(net, ring, m, kNoLimit, node_rng, row);
  });
}

}  // namespace canon
