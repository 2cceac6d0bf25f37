#include "canon/cancan.h"

#include <span>
#include <stdexcept>
#include <utility>

#include "canon/merge.h"
#include "overlay/greedy_walk.h"
#include "telemetry/scoped_timer.h"

namespace canon {

CanCanZones::CanCanZones(const OverlayNetwork& net)
    : net_(&net),
      stride_(static_cast<std::size_t>(net.domains().max_depth()) + 1),
      slots_(net.size() * stride_) {
  const DomainTree& dom = net.domains();
  trees_.reserve(static_cast<std::size_t>(dom.domain_count()));
  for (int d = 0; d < dom.domain_count(); ++d) {
    const Domain& domain = dom.domain(d);
    const ZoneTree& t = trees_.emplace_back(
        net, std::span<const std::uint32_t>{domain.members.data(),
                                            domain.members.size()});
    const auto level = static_cast<std::size_t>(domain.depth);
    for (std::size_t pos = 0; pos < domain.members.size(); ++pos) {
      slots_[domain.members[pos] * stride_ + level] =
          Slot{d, static_cast<std::uint32_t>(pos), t.lcps(pos)};
    }
  }
}

std::uint32_t CanCanZones::responsible(NodeId key) const {
  return tree(net_->domains().root()).owner_of(key);
}

LinkTable build_cancan(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.cancan_ms");
  const CanCanZones zones(net);
  const int bits = net.space().bits();
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    for_each_merge_level(net, m, [&](int level, const RingView&,
                                     const RingView* child) {
      const CanCanZones::Slot& here = zones.slot(m, level);
      const ZoneTree& t = zones.tree(here.domain);
      if (child == nullptr) {
        // Leaf domain: every CAN edge.
        t.append_neighbors(here.pos, row);
        return;
      }
      // Higher levels: a face edge survives the merge only if it is
      // shorter than the shortest lower-level link *for that face* (the
      // per-bucket reading of condition (b), as in Kandy). On the virtual
      // hypercube a face at prefix position `pos` spans 2^(N-1-pos); the
      // lower zone covers exactly the faces at positions < len(lower
      // zone), so deeper faces are always kept, and a shallower face
      // survives only when the child domain has no member at all across
      // it: its ID bucket, the aligned block of m's ID with bit N-1-pos
      // flipped, is empty. A gallop from m's own child-list position finds
      // the block's first member.
      const CanCanZones::Slot& below = zones.slot(m, level + 1);
      const int lower_len = ZoneTree::primary_len(below.lcps);
      const int len = ZoneTree::primary_len(here.lcps);
      for (int pos = 0; pos < len; ++pos) {
        if (pos < lower_len) {
          const NodeId span = NodeId{1} << (bits - 1 - pos);
          const NodeId lo = (net.id(m) ^ span) & ~(span - 1);
          const std::size_t p = child->seek(lo, below.pos);
          if (p < child->size() && child->id_at(p) - lo < span) continue;
        }
        t.append_face_owners(here.pos, pos, row);
      }
    });
  });
}

CanCanKernel::CanCanKernel(const OverlayNetwork& net,
                           std::shared_ptr<const CanCanZones> zones,
                           const LinkTable& links)
    : net_(&net),
      zones_(std::move(zones)),
      links_(&links),
      max_hops_(8 * net.space().bits() + 16) {
  if (&zones_->net() != &net) {
    throw std::invalid_argument("CanCanKernel: zones of another network");
  }
}

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
      return zones_->tree(d).owner_of(key);
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
  // A candidate is in the stage iff its slot at the stage's level names
  // the stage; the slot also gives its prefix match.
  const int level = dom.domain(stage).depth;
  const int bits = net().space().bits();
  const int cur_match = ZoneTree::match_len(
      site.id, zones_->slot(site.at, level).lcps, key, bits);
  for (std::size_t j = 0; j < site.count; ++j) {
    const NodeIndex nb = site.targets[j];
    if (nb == prev) continue;
    const CanCanZones::Slot& s = zones_->slot(nb, level);
    if (s.domain != stage) continue;
    const int m = ZoneTree::match_len(site.ids[j], s.lcps, key, bits);
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
      if (nb == prev || zones_->slot(nb, level).domain != stage) continue;
      const std::uint64_t d = (site.ids[j] ^ key) & mask;
      if (d < cur_d) pick.offer(cur_d - d, j);
    }
  }
  return pick.found() ? Hop::kForward : Hop::kStuck;
}

NodeIndex CanCanKernel::live_stage_owner(int d, NodeId key,
                                         const FailureSet& dead) const {
  const NodeIndex structural = zones_->tree(d).owner_of(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net().space();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (const NodeIndex m : net().domains().domain(d).members) {
    if (dead.dead(m)) continue;
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
