#include "canon/cancan.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"
#include "dht/kademlia.h"
#include "overlay/greedy_walk.h"
#include "telemetry/scoped_timer.h"

namespace canon {

CanCanNetwork::CanCanNetwork(const OverlayNetwork& net)
    : net_(&net) {
  telemetry::ScopedTimer timer("build.cancan_ms");
  const DomainTree& dom = net.domains();
  trees_.resize(static_cast<std::size_t>(dom.domain_count()));
  // Per-domain zone tries are independent; one shard per few domains.
  parallel_for(static_cast<std::size_t>(dom.domain_count()), 4,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t d = begin; d < end; ++d) {
                   const auto& members =
                       dom.domain(static_cast<int>(d)).members;
                   trees_[d] = std::make_unique<ZoneTree>(
                       net, std::span<const std::uint32_t>{members.data(),
                                                           members.size()});
                 }
               });

  const auto add_node_links = [&](NodeIndex m, LinkRow& row) {
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    // Leaf domain: every CAN edge.
    for (const std::uint32_t v :
         tree(chain[static_cast<std::size_t>(leaf)]).neighbors(m)) {
      row.push_back(v);
    }
    // Higher levels: a face edge survives the merge only if it is shorter
    // than the shortest lower-level link *for that face* (the per-bucket
    // reading of condition (b), as in Kandy). On the virtual hypercube a
    // face at prefix position `pos` spans 2^(N-1-pos); the lower zone
    // covers exactly the faces at positions < len(lower zone), so deeper
    // faces are always kept, and a shallower face survives only when the
    // lower domain has no member at all across it (its ID bucket is empty).
    const int bits = net.space().bits();
    for (int level = leaf - 1; level >= 0; --level) {
      const RingView child_ring =
          net.domain_ring(chain[static_cast<std::size_t>(level + 1)]);
      const int lower_len =
          tree(chain[static_cast<std::size_t>(level + 1)]).zone(m).len;
      const ZoneTree& t = tree(chain[static_cast<std::size_t>(level)]);
      const int len = t.zone(m).len;
      for (int pos = 0; pos < len; ++pos) {
        // Keep only if the child domain is empty across this face.
        if (pos < lower_len &&
            bucket_count(net, child_ring, net.id(m), bits - 1 - pos) != 0) {
          continue;
        }
        t.face_neighbors(m, pos, row);
      }
    }
  };
  links_ = LinkTable::build(net.ids(), add_node_links);
}

std::uint32_t CanCanNetwork::responsible(NodeId key) const {
  return tree(net_->domains().root()).owner_of(key);
}

CanCanKernel::CanCanKernel(std::shared_ptr<const CanCanNetwork> network)
    : network_(std::move(network)),
      max_hops_(8 * network_->net().space().bits() + 16) {}

template <typename Pick, typename Ctx>
Hop CanCanKernel::rank(const HopSite& site, NodeId key, std::uint64_t& state,
                       Pick& pick, const Ctx& ctx) const {
  const DomainTree& dom = net().domains();
  const auto prev = static_cast<NodeIndex>(state >> 32) - 1;
  // Stage = the domain whose partition the message is finishing, starting
  // at the source's leaf domain.
  int stage = (state & 0xFFFFFFFFu) == 0
                  ? dom.domain_chain(site.at).back()
                  : static_cast<int>(state & 0xFFFFFFFFu) - 1;
  const auto stage_owner = [&](int d) {
    if constexpr (Ctx::kActive) {
      return live_stage_owner(d, key, ctx.dead);
    } else {
      return network_->tree(d).owner_of(key);
    }
  };
  NodeIndex owner = stage_owner(stage);
  while (owner == site.at) {  // lifting consumes no hop
    if (dom.domain(stage).parent < 0) return Hop::kArrived;
    stage = dom.domain(stage).parent;
    owner = stage_owner(stage);
  }
  state = (std::uint64_t{site.at} + 1) << 32 |
          static_cast<std::uint64_t>(stage + 1);
  const ZoneTree& t = network_->tree(stage);
  const int cur_match = t.match_len(site.at, key);
  for (std::size_t j = 0; j < site.count; ++j) {
    const NodeIndex nb = site.targets[j];
    if (nb == prev || !t.contains(nb)) continue;
    const int m = t.match_len(nb, key);
    if (m > cur_match) pick.offer(static_cast<Score>(m), j);
  }
  if (!pick.found()) {
    // The key's stage zone may be a short empty-sibling block: a neighbor
    // owning it outright.
    pick.tier(site.targets, site.ids, /*plain=*/true);
    const std::size_t j = detail::row_index(site, owner);
    if (j != detail::kNoPick && owner != prev) pick.offer(1, j);
  }
  if (!pick.found()) {
    // Faces the merge filter removed (and, under faults, dead ones): a
    // stage neighbor strictly closer to the key in XOR distance.
    pick.tier(site.targets, site.ids, /*plain=*/true);
    const std::uint64_t mask = net().space().mask();
    const std::uint64_t cur_d = (site.id ^ key) & mask;
    for (std::size_t j = 0; j < site.count; ++j) {
      const NodeIndex nb = site.targets[j];
      if (nb == prev || !t.contains(nb)) continue;
      const std::uint64_t d = (site.ids[j] ^ key) & mask;
      if (d < cur_d) pick.offer(cur_d - d, j);
    }
  }
  return pick.found() ? Hop::kForward : Hop::kStuck;
}

NodeIndex CanCanKernel::live_stage_owner(int d, NodeId key,
                                         const FailureSet& dead) const {
  const ZoneTree& t = network_->tree(d);
  const NodeIndex structural = t.owner_of(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net().space();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (const NodeIndex m : net().domains().domain(d).members) {
    if (dead.dead(m) || !t.contains(m)) continue;
    const std::uint64_t dist = space.xor_distance(net().id(m), key);
    if (best == RingView::kNone || dist < best_d) {
      best = m;
      best_d = dist;
    }
  }
  if (best == RingView::kNone) {
    throw std::logic_error("live_stage_owner: stage domain has no live node");
  }
  return best;
}

template class GreedyRouter<CanCanKernel>;

}  // namespace canon
