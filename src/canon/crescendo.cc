#include "canon/crescendo.h"

#include "dht/chord.h"
#include "telemetry/scoped_timer.h"

namespace canon {

void add_crescendo_links(const OverlayNetwork& net, NodeIndex m,
                         LinkRow& out) {
  const auto& chain = net.domains().domain_chain(m);
  const int leaf = static_cast<int>(chain.size()) - 1;
  // Leaf domain: plain Chord among the members.
  add_chord_fingers(net, net.domain_ring(chain[static_cast<std::size_t>(leaf)]),
                    m, kNoLimit, out);
  // Merge levels, bottom-up: links must beat the child-ring successor.
  for (int level = leaf - 1; level >= 0; --level) {
    const std::uint64_t limit =
        net.domain_ring(chain[static_cast<std::size_t>(level + 1)])
            .successor_distance(net.id(m));
    add_chord_fingers(net,
                      net.domain_ring(chain[static_cast<std::size_t>(level)]),
                      m, limit, out);
  }
}

LinkTable build_crescendo(const OverlayNetwork& net,
                          const LinkTable::ShardProgress& on_shard) {
  telemetry::ScopedTimer timer("build.crescendo_ms");
  return LinkTable::build(
      net.ids(),
      [&net](NodeIndex m, LinkRow& row) { add_crescendo_links(net, m, row); },
      on_shard);
}

LinkTable build_crescendo_streamed(const OverlayNetwork& net) {
  return build_crescendo(net);
}

}  // namespace canon
