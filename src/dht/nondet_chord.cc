#include "dht/nondet_chord.h"

#include "common/parallel.h"
#include "telemetry/scoped_timer.h"

#include <algorithm>

namespace canon {

void add_nondet_chord_links(const OverlayNetwork& net, const RingView& ring,
                            std::uint32_t m, std::uint64_t limit, Rng& rng,
                            LinkTable& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);

  // Successor link (distance >= 1), required for routing completeness.
  const std::uint64_t succ_dist = ring.successor_distance(mid);
  if (succ_dist == std::numeric_limits<std::uint64_t>::max()) return;
  if (succ_dist < limit) out.add(m, ring.first_at_distance(mid, 1));

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
    out.add(m, ring.select_in(start, hi_dist - lo_dist, rng.uniform(count)));
  }
}

LinkTable build_nondet_chord(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.nondet_chord_ms");
  LinkTable out(net.size());
  const RingView ring = net.ring();
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t m = begin; m < end; ++m) {
      Rng node_rng = base.fork(m);
      add_nondet_chord_links(net, ring, static_cast<std::uint32_t>(m),
                             kNoLimit, node_rng, out);
    }
  });
  out.finalize(net.ids());
  return out;
}

}  // namespace canon
