#include "canon/mixed.h"

#include "dht/chord.h"
#include "telemetry/scoped_timer.h"

namespace canon {

namespace {

void add_clique_crescendo_links(const OverlayNetwork& net, std::uint32_t m,
                                LinkRow& out) {
  const DomainTree& dom = net.domains();
  const auto& chain = dom.domain_chain(m);
  const int leaf = static_cast<int>(chain.size()) - 1;
  // Leaf domain: complete graph.
  const RingView leaf_ring =
      net.domain_ring(chain[static_cast<std::size_t>(leaf)]);
  for (const std::uint32_t v : leaf_ring.members()) out.push_back(v);
  // Higher levels: the standard Crescendo merge.
  for (int level = leaf - 1; level >= 0; --level) {
    const std::uint64_t limit =
        net.domain_ring(chain[static_cast<std::size_t>(level + 1)])
            .successor_distance(net.id(m));
    add_chord_fingers(net,
                      net.domain_ring(chain[static_cast<std::size_t>(level)]),
                      m, limit, out);
  }
}

}  // namespace

LinkTable build_clique_crescendo(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.clique_crescendo_ms");
  return LinkTable::build(net.ids(), [&net](NodeIndex m, LinkRow& row) {
    add_clique_crescendo_links(net, m, row);
  });
}

}  // namespace canon
