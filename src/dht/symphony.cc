#include "dht/symphony.h"

#include "telemetry/scoped_timer.h"

#include <cmath>
#include <limits>

namespace canon {

void add_symphony_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, std::uint64_t limit, int draws,
                        Rng& rng, LinkRow& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);
  const std::size_t n = ring.size();
  if (n <= 1) return;

  // Successor link, required for routing completeness.
  const std::uint64_t succ_dist = ring.successor_distance(mid);
  if (succ_dist < limit) out.push_back(ring.first_at_distance(mid, 1));

  if (draws < 0) draws = floor_log2(n);
  for (int i = 0; i < draws; ++i) {
    // Harmonic draw: x = n^(u-1) is distributed with pdf 1/(x ln n) on
    // [1/n, 1]; the link spans fraction x of the ring.
    const double u = rng.uniform_double();
    const double x = std::pow(static_cast<double>(n), u - 1.0);
    const std::uint64_t dist =
        static_cast<std::uint64_t>(x * space.size());
    if (dist == 0) continue;
    // Link to the manager of the drawn point.
    const std::uint32_t v =
        ring.predecessor_or_self(space.advance(mid, dist));
    if (v == m) continue;
    if (space.ring_distance(mid, net.id(v)) < limit) out.push_back(v);
  }
}

LinkTable build_symphony(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.symphony_ms");
  const RingView ring = net.ring();
  // Per-node RNG streams forked from the caller's generator: node m draws
  // from base.fork(m) regardless of visit order, so serial and sharded
  // builds produce byte-identical tables.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_symphony_links(net, ring, m, kNoLimit, /*draws=*/-1, node_rng, row);
  });
}

}  // namespace canon
