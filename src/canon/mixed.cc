#include "canon/mixed.h"

#include "canon/merge.h"
#include "dht/chord.h"
#include "telemetry/scoped_timer.h"

namespace canon {

LinkTable build_clique_crescendo(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.clique_crescendo_ms");
  return LinkTable::build(net.ids(), [&net](NodeIndex m, LinkRow& row) {
    for_each_merge_level(
        net, m, [&](int, const RingView& ring, const RingView* child) {
          if (child == nullptr) {
            // Leaf domain: complete graph.
            row.insert(row.end(), ring.members().begin(),
                       ring.members().end());
          } else {
            // Higher levels: the standard Crescendo merge.
            add_chord_fingers(net, ring, m, merge_limit(net, m, child), row);
          }
        });
  });
}

}  // namespace canon
