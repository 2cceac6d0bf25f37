#include "canon/kandy.h"

#include "telemetry/scoped_timer.h"

namespace canon {

void add_kandy_links(const OverlayNetwork& net, std::uint32_t m,
                     BucketChoice choice, MergePolicy policy, Rng& rng,
                     LinkRow& out) {
  // Leaf domain first, then each enclosing domain: the bucket state one
  // level leaves behind is the child-ring filter of the level above.
  const auto& chain = net.domains().domain_chain(m);
  ChildBuckets child;
  for (auto d = chain.rbegin(); d != chain.rend(); ++d) {
    add_kademlia_links(net, net.domain_ring(*d), m, child, choice, policy, rng,
                       out);
  }
}

LinkTable build_kandy(const OverlayNetwork& net, BucketChoice choice, Rng& rng,
                      MergePolicy policy) {
  telemetry::ScopedTimer timer("build.kandy_ms");
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_kandy_links(net, m, choice, policy, node_rng, row);
  });
}

}  // namespace canon
