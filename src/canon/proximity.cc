#include "canon/proximity.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <stdexcept>

#include "canon/merge.h"
#include "dht/chord.h"
#include "overlay/greedy_walk.h"

namespace canon {

GroupedOverlay::GroupedOverlay(const OverlayNetwork& net) : net_(&net) {
  const int bits = net.space().bits();
  const std::size_t n = net.size();
  if (n == 0) throw std::invalid_argument("GroupedOverlay: empty network");
  prefix_bits_ = std::min(
      bits, ceil_log2(std::max<std::uint64_t>(1, n / kTargetGroupSize)));
  shift_ = bits - prefix_bits_;

  // Nodes are ID-sorted, so groups are contiguous runs of equal gid.
  group_index_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId g = gid_of_key(net.id(i));
    if (groups_.empty() || groups_.back().gid != g) {
      groups_.push_back(Group{g, {}});
    }
    groups_.back().members.push_back(i);
    group_index_[i] = static_cast<int>(groups_.size()) - 1;
  }
}

NodeId GroupedOverlay::gid_of_node(std::uint32_t node) const {
  return gid_of_key(net_->id(node));
}

int GroupedOverlay::group_index_of(std::uint32_t node) const {
  return group_index_[node];
}

int GroupedOverlay::group_successor(NodeId g) const {
  const auto it = std::lower_bound(
      groups_.begin(), groups_.end(), g,
      [](const Group& grp, NodeId key) { return grp.gid < key; });
  if (it == groups_.end()) return 0;
  return static_cast<int>(it - groups_.begin());
}

int GroupedOverlay::responsible_group(NodeId key) const {
  const NodeId g = gid_of_key(key);
  const int succ = group_successor(g);
  if (groups_[static_cast<std::size_t>(succ)].gid == g) return succ;
  return (succ + static_cast<int>(groups_.size()) - 1) %
         static_cast<int>(groups_.size());
}

std::uint32_t GroupedOverlay::responsible(NodeId key) const {
  const auto& members =
      groups_[static_cast<std::size_t>(responsible_group(key))].members;
  const RingView view(net_->space(), net_->ids(),
                      {members.data(), members.size()});
  return view.predecessor_or_self(key);
}

std::uint64_t GroupedOverlay::group_distance(NodeId from_gid,
                                             NodeId to_gid) const {
  if (prefix_bits_ == 0) return 0;
  const std::uint64_t mask = (prefix_bits_ == 64)
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << prefix_bits_) - 1;
  return (to_gid - from_gid) & mask;
}

namespace {

/// The latency-nearest of up to `samples` randomly sampled group members.
std::uint32_t pick_nearest(const std::vector<std::uint32_t>& members,
                           std::uint32_t from, const HopCost& latency,
                           int samples, Rng& rng) {
  std::uint32_t best = RingView::kNone;
  double best_ms = 0;
  const int budget = std::min<int>(samples, static_cast<int>(members.size()));
  for (int i = 0; i < budget; ++i) {
    const std::uint32_t cand =
        budget == static_cast<int>(members.size())
            ? members[static_cast<std::size_t>(i)]
            : members[rng.uniform(members.size())];
    if (cand == from) continue;
    const double ms = latency(from, cand);
    if (best == RingView::kNone || ms < best_ms) {
      best = cand;
      best_ms = ms;
    }
  }
  return best;
}

/// Adds node `m`'s group-level Chord links: for each 0 <= k < T, the first
/// non-empty group at group distance >= 2^k, capped (strictly) at
/// `group_limit` group-distance (condition (b) at group granularity; pass
/// kNoLimit for flat Chord Prox). Endpoints are latency-sampled.
void add_group_links(const GroupedOverlay& groups, std::uint32_t m,
                     std::uint64_t group_limit,
                     const HopCost& latency, const ProximityConfig& cfg,
                     Rng& rng, LinkRow& out) {
  const int T = groups.prefix_bits();
  const NodeId g = groups.gid_of_node(m);
  for (int k = 0; k < T; ++k) {
    const std::uint64_t dist = std::uint64_t{1} << k;
    if (dist >= group_limit) break;
    const std::uint64_t mask = (std::uint64_t{1} << T) - 1;
    const int gi = groups.group_successor((g + dist) & mask);
    const auto& target = groups.groups()[static_cast<std::size_t>(gi)];
    const std::uint64_t covered = groups.group_distance(g, target.gid);
    if (covered == 0 || covered >= group_limit) continue;
    const std::uint32_t v =
        pick_nearest(target.members, m, latency, cfg.sample_size, rng);
    if (v != RingView::kNone) out.push_back(v);
  }
}

void add_clique_links(const GroupedOverlay& groups, std::uint32_t m,
                      LinkRow& out) {
  const auto& mine =
      groups.groups()[static_cast<std::size_t>(groups.group_index_of(m))];
  out.insert(out.end(), mine.members.begin(), mine.members.end());
}

}  // namespace

LinkTable build_chord_prox(const OverlayNetwork& net,
                           const GroupedOverlay& groups,
                           const HopCost& latency, const ProximityConfig& cfg,
                           Rng& rng) {
  telemetry::ScopedTimer timer("build.chord_prox_ms");
  return build_forked(net.ids(), rng, [&](NodeIndex m, Rng& node_rng,
                                          LinkRow& row) {
    add_clique_links(groups, m, row);
    add_group_links(groups, m, kNoLimit, latency, cfg, node_rng, row);
  });
}

LinkTable build_crescendo_prox(const OverlayNetwork& net,
                               const GroupedOverlay& groups,
                               const HopCost& latency,
                               const ProximityConfig& cfg, Rng& rng) {
  telemetry::ScopedTimer timer("build.crescendo_prox_ms");
  return build_forked(net.ids(), rng, [&](NodeIndex m, Rng& node_rng,
                                          LinkRow& row) {
    add_clique_links(groups, m, row);
    for_each_merge_level(net, m, [&](int level, const RingView& ring,
                                     const RingView* child) {
      if (level > 0) {
        // Normal Crescendo inside the leaf and at every merge below the
        // root.
        add_chord_fingers(net, ring, m, merge_limit(net, m, child), row);
        return;
      }
      // The root: group-based (the whole structure, when the population
      // is flat), with condition (b) at group granularity — only groups
      // strictly closer than the group of the child-ring successor.
      std::uint64_t group_limit = kNoLimit;
      if (child != nullptr) {
        const std::uint32_t succ = child->first_at_distance(net.id(m), 1);
        if (succ != RingView::kNone && succ != m) {
          group_limit = groups.group_distance(groups.gid_of_node(m),
                                              groups.gid_of_node(succ));
          if (group_limit == 0) return;  // child successor shares the group
        }
      }
      add_group_links(groups, m, group_limit, latency, cfg, node_rng, row);
    });
  });
}

GroupKernel::GroupKernel(const OverlayNetwork& net,
                         std::shared_ptr<const GroupedOverlay> groups,
                         const LinkTable& links)
    : net_(&net),
      groups_(std::move(groups)),
      links_(&links),
      max_hops_(hop_guard(net)) {}

template <typename Pick, typename Ctx>
Hop GroupKernel::rank(const HopSite& site, NodeId key, std::uint64_t& state,
                      Pick& pick, const Ctx& ctx) const {
  if (state == 0) {
    NodeIndex target;
    if constexpr (Ctx::kActive) {
      target = live_responsible(key, ctx.dead);
    } else {
      target = groups_->responsible(key);
    }
    state = std::uint64_t{target} + 1;
  }
  const auto target = static_cast<NodeIndex>(state - 1);
  if (site.at == target) return Hop::kArrived;
  // Every group ID derives from an inline row ID: gid_of_node(m) ==
  // gid_of_key(net.id(m)).
  const std::uint64_t mask = net_->space().mask();
  const NodeId target_gid = groups_->gid_of_node(target);
  const NodeId cur_gid = groups_->gid_of_key(site.id);
  const std::uint64_t remaining_groups =
      groups_->group_distance(cur_gid, target_gid);
  const std::uint64_t remaining_ids = (key - site.id) & mask;
  if (cur_gid == target_gid) {
    // Final hop over the dense group network.
    const std::size_t j = detail::row_index(site, target);
    if (j != detail::kNoPick) pick.offer(GroupScore{1, 0}, j);
  } else {
    // Greedy on group distance, never overshooting the target group; ties
    // broken by clockwise ID progress toward the key.
    for (std::size_t j = 0; j < site.count; ++j) {
      const std::uint64_t gcov = groups_->group_distance(
          cur_gid, groups_->gid_of_key(site.ids[j]));
      const std::uint64_t icov = (site.ids[j] - site.id) & mask;
      if (gcov > remaining_groups) continue;  // overshoots the target group
      if (gcov == 0 && icov > remaining_ids) continue;
      pick.offer(GroupScore{gcov, icov}, j);
    }
  }
  if constexpr (Ctx::kActive) {
    if (!pick.found()) {
      // Second tier, the sidestep: strictly closer to the target in
      // (group distance, ID distance) order, scored so that closer wins.
      pick.tier(site.targets, site.ids, /*plain=*/false);
      for (std::size_t j = 0; j < site.count; ++j) {
        const std::uint64_t gd = groups_->group_distance(
            groups_->gid_of_key(site.ids[j]), target_gid);
        const std::uint64_t idd = (key - site.ids[j]) & mask;
        if (gd < remaining_groups ||
            (gd == remaining_groups && idd < remaining_ids)) {
          pick.offer(GroupScore{remaining_groups - gd, ~idd}, j);
        }
      }
    }
  }
  return pick.found() ? Hop::kForward : Hop::kStuck;
}

NodeIndex GroupKernel::live_responsible(NodeId key,
                                        const FailureSet& dead) const {
  const NodeIndex structural = groups_->responsible(key);
  if (!dead.dead(structural)) return structural;
  // Node indices are ring positions (ascending-ID order): walk
  // predecessors from the structural responsible until a live one.
  const auto n = static_cast<NodeIndex>(net_->size());
  for (NodeIndex i = 1; i < n; ++i) {
    const NodeIndex candidate = (structural + n - i) % n;
    if (!dead.dead(candidate)) return candidate;
  }
  throw std::logic_error("live_responsible: everyone is dead");
}

template class GreedyRouter<GroupKernel>;

}  // namespace canon
