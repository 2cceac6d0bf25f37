#include "dht/chord.h"

#include <bit>

#include "common/parallel.h"
#include "telemetry/scoped_timer.h"

namespace canon {

void add_chord_fingers(const OverlayNetwork& net, const RingView& ring,
                       std::uint32_t m, std::uint64_t limit, LinkTable& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);
  // A finger found at distance d is also finger j for every 2^j <= d, so
  // each search jumps to the first exponent past d: one search per
  // distinct finger.
  for (int k = 0; k < space.bits();) {
    const std::uint64_t dist = std::uint64_t{1} << k;
    if (dist >= limit) break;  // all further fingers are at least this far
    const std::uint32_t v = ring.successor(space.advance(mid, dist));
    const std::uint64_t d = space.ring_distance(mid, net.id(v));
    if (v != m && d < limit) out.add(m, v);
    // d < dist: the search wrapped back to m (or past it, when m is not a
    // member), so every further exponent finds v again.
    if (d < dist) break;
    k = std::bit_width(d);
  }
}

LinkTable build_chord(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.chord_ms");
  LinkTable out(net.size());
  const RingView ring = net.ring();
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t m = begin; m < end; ++m) {
      add_chord_fingers(net, ring, static_cast<std::uint32_t>(m), kNoLimit,
                        out);
    }
  });
  out.finalize(net.ids());
  return out;
}

}  // namespace canon
