#include "canon/crescendo.h"

#include "canon/merge.h"
#include "dht/chord.h"
#include "telemetry/scoped_timer.h"

namespace canon {

void add_crescendo_links(const OverlayNetwork& net, NodeIndex m,
                         LinkRow& out) {
  // Chord fingers in every domain, each capped by condition (b).
  for_each_merge_level(net, m,
                       [&](int, const RingView& ring, const RingView* child) {
                         add_chord_fingers(net, ring, m,
                                           merge_limit(net, m, child), out);
                       });
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
