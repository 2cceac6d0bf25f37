#include "canon/kandy.h"

#include "canon/merge.h"
#include "telemetry/scoped_timer.h"

namespace canon {

LinkTable build_kandy(const OverlayNetwork& net, MergePolicy policy) {
  telemetry::ScopedTimer timer("build.kandy_ms");
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    // The bucket state one level leaves behind is the child-ring filter
    // of the level above.
    ChildBuckets buckets;
    for_each_merge_level(net, m,
                         [&](int, const RingView& ring, const RingView*) {
                           add_kademlia_links(net, ring, m, buckets, policy,
                                              row);
                         });
  });
}

}  // namespace canon
