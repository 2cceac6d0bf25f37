#include "dht/nondet_chord.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>

namespace canon {

void add_nondet_chord_links(const OverlayNetwork& net, const RingView& ring,
                            std::uint32_t m, std::uint64_t limit, Rng& rng,
                            LinkRow& out) {
  const IdSpace& space = net.space();
  const NodeId mid = net.id(m);
  const std::size_t n = ring.size();

  // Walking the list cyclically from m's successor visits the other
  // members in order of distance from m, and ends at m itself, so every
  // bucket is a run of positions and its size a difference of ranks
  // (positions counted from the successor).
  const std::size_t succ = ring.successor_pos(space.advance(mid, 1));
  const std::uint64_t succ_dist = space.ring_distance(mid, ring.id_at(succ));
  if (succ_dist == 0) return;  // m is alone in `ring`
  // Successor link (distance >= 1), required for routing completeness.
  if (succ_dist < limit) out.push_back(ring.at(succ));
  const auto rank = [&](std::size_t pos) { return (pos + n - succ) % n; };

  // Every bucket below the successor's is empty and draws nothing. Each
  // bucket starts where the last one ended: one search per bucket, for its
  // end, galloping on from the last end.
  RingCursor cursor(ring, mid, succ);
  std::size_t start = succ;
  for (int k = floor_log2(succ_dist); k < space.bits(); ++k) {
    if ((std::uint64_t{1} << k) >= limit) break;
    // Bucket k ends at distance 2^{k+1}, cut at the limit; the top bucket
    // runs to m itself (its own position) unless the limit cuts it.
    const std::uint64_t hi =
        k + 1 < space.bits() ? std::min(limit, std::uint64_t{2} << k) : limit;
    const std::size_t end = hi == kNoLimit
                                ? (succ + n - 1) % n
                                : cursor.next(space.advance(mid, hi));
    const std::size_t count = rank(end) - rank(start);
    if (count != 0) out.push_back(ring.at((start + rng.uniform(count)) % n));
    start = end;
  }
}

LinkTable build_nondet_chord(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.nondet_chord_ms");
  const RingView ring = net.ring();
  return build_forked(net.ids(), rng,
                      [&](NodeIndex m, Rng& node_rng, LinkRow& row) {
                        add_nondet_chord_links(net, ring, m, kNoLimit,
                                               node_rng, row);
                      });
}

}  // namespace canon
