#include "canon/nondet_crescendo.h"

#include "canon/merge.h"
#include "dht/nondet_chord.h"
#include "telemetry/scoped_timer.h"

namespace canon {

LinkTable build_nondet_crescendo(const OverlayNetwork& net, Rng& rng) {
  telemetry::ScopedTimer timer("build.nondet_crescendo_ms");
  return build_forked(net.ids(), rng, [&](NodeIndex m, Rng& node_rng,
                                          LinkRow& row) {
    for_each_merge_level(
        net, m, [&](int, const RingView& ring, const RingView* child) {
          add_nondet_chord_links(net, ring, m, merge_limit(net, m, child),
                                 node_rng, row);
        });
  });
}

}  // namespace canon
