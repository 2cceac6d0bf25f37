#include "canon/kandy.h"

#include "common/parallel.h"
#include "telemetry/scoped_timer.h"

namespace canon {

void add_kandy_links(const OverlayNetwork& net, std::uint32_t m,
                     BucketChoice choice, MergePolicy policy, Rng& rng,
                     LinkTable& out) {
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
  LinkTable out(net.size());
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  parallel_for(net.size(), kNodeGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t m = begin; m < end; ++m) {
      Rng node_rng = base.fork(m);
      add_kandy_links(net, static_cast<std::uint32_t>(m), choice, policy,
                      node_rng, out);
    }
  });
  out.finalize(net.ids());
  return out;
}

}  // namespace canon
