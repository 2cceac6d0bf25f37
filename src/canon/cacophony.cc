#include "canon/cacophony.h"

#include "canon/merge.h"
#include "dht/symphony.h"
#include "telemetry/scoped_timer.h"

namespace canon {

LinkTable build_cacophony(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.cacophony_ms");
  return build_forked(net.ids(), rng, [&](NodeIndex m, Rng& node_rng,
                                          LinkRow& row) {
    for_each_merge_level(
        net, m, [&](int, const RingView& ring, const RingView* child) {
          add_symphony_links(net, ring, m, merge_limit(net, m, child),
                             node_rng, row);
        });
  });
}

}  // namespace canon
