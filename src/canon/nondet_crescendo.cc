#include "canon/nondet_crescendo.h"

#include "telemetry/scoped_timer.h"

#include "dht/chord.h"
#include "dht/nondet_chord.h"

namespace canon {

void add_nondet_crescendo_links(const OverlayNetwork& net, std::uint32_t m,
                                Rng& rng, LinkRow& out) {
  const auto& chain = net.domains().domain_chain(m);
  const int leaf = static_cast<int>(chain.size()) - 1;
  add_nondet_chord_links(
      net, net.domain_ring(chain[static_cast<std::size_t>(leaf)]), m, kNoLimit,
      rng, out);
  for (int level = leaf - 1; level >= 0; --level) {
    const std::uint64_t limit =
        net.domain_ring(chain[static_cast<std::size_t>(level + 1)])
            .successor_distance(net.id(m));
    add_nondet_chord_links(
        net, net.domain_ring(chain[static_cast<std::size_t>(level)]), m, limit,
        rng, out);
  }
}

LinkTable build_nondet_crescendo(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.nondet_crescendo_ms");
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_nondet_crescendo_links(net, m, node_rng, row);
  });
}

}  // namespace canon
