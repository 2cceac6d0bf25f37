#include "dht/symphony.h"

#include "telemetry/scoped_timer.h"

#include <cmath>

namespace canon {

void add_symphony_links(const OverlayNetwork& net, const RingView& ring,
                        std::uint32_t m, std::uint64_t limit, Rng& rng,
                        LinkRow& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);
  const std::size_t n = ring.size();
  if (n <= 1) return;

  // Successor link, required for routing completeness.
  const NodeIndex succ = ring.successor(space.advance(mid, 1));
  if (space.ring_distance(mid, net.id(succ)) < limit) out.push_back(succ);

  const int draws = floor_log2(n);
  for (int i = 0; i < draws; ++i) {
    // Harmonic draw: x = n^(u-1) is distributed with pdf 1/(x ln n) on
    // [1/n, 1]; the link spans fraction x of the ring.
    const double u = rng.uniform_double();
    const double x = std::pow(static_cast<double>(n), u - 1.0);
    const std::uint64_t dist =
        static_cast<std::uint64_t>(x * space.size());
    // The drawn point's manager lies between m and the point, so a draw
    // below the limit links it unless it is m. The limit is a member's
    // distance, so a draw at or past it never links: it costs no search.
    if (dist == 0 || dist >= limit) continue;
    const std::uint32_t v =
        ring.predecessor_or_self(space.advance(mid, dist));
    if (v != m) out.push_back(v);
  }
}

LinkTable build_symphony(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.symphony_ms");
  const RingView ring = net.ring();
  return build_forked(net.ids(), rng,
                      [&](NodeIndex m, Rng& node_rng, LinkRow& row) {
                        add_symphony_links(net, ring, m, kNoLimit, node_rng,
                                           row);
                      });
}

}  // namespace canon
