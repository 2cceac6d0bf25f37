#include "dht/can.h"

#include <algorithm>
#include <stdexcept>

#include "overlay/greedy_walk.h"
#include "telemetry/scoped_timer.h"

namespace canon {

namespace {

/// Bit of `id` at prefix position `pos` (0 = most significant of the space).
int bit_at(NodeId id, int pos, int bits) {
  return static_cast<int>((id >> (bits - 1 - pos)) & 1);
}

}  // namespace

ZoneTree::ZoneTree(const OverlayNetwork& net,
                   std::span<const std::uint32_t> members)
    : net_(&net) {
  if (members.empty()) throw std::invalid_argument("ZoneTree: no members");
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (net.id(members[i - 1]) >= net.id(members[i])) {
      throw std::invalid_argument("ZoneTree: members must be ID-sorted");
    }
  }
  build(members, 0, members.size(), 0, 0);
}

int ZoneTree::make_leaf(std::uint32_t owner, NodeId prefix, int len) {
  const int idx = static_cast<int>(trie_.size());
  trie_.push_back(TrieNode{{-1, -1}, owner, true, Zone{prefix, len}});
  leaves_of_[owner].push_back(idx);
  // The primary leaf is the one containing the owner's own ID.
  const int bits = net_->space().bits();
  const NodeId id = net_->id(owner);
  if (len == 0 || (id >> (bits - len)) == (prefix >> (bits - len))) {
    primary_leaf_[owner] = idx;
  }
  return idx;
}

int ZoneTree::build(std::span<const std::uint32_t> members, std::size_t lo,
                    std::size_t hi, NodeId prefix, int len) {
  const int bits = net_->space().bits();
  if (hi - lo == 1) return make_leaf(members[lo], prefix, len);
  if (len >= bits) throw std::logic_error("ZoneTree: duplicate IDs");

  // Split the ID-sorted span at the first member whose bit `len` is 1.
  const NodeId half = NodeId{1} << (bits - 1 - len);
  const NodeId split_id = prefix | half;
  std::size_t mid = lo;
  while (mid < hi && net_->id(members[mid]) < split_id) ++mid;

  const int idx = static_cast<int>(trie_.size());
  trie_.push_back(TrieNode{{-1, -1}, 0, false, Zone{prefix, len}});
  int left;
  int right;
  if (mid == lo) {
    // Left half empty: owned by the boundary member (smallest ID on the
    // populated side), the member "closest across" the empty block.
    left = make_leaf(members[lo], prefix, len + 1);
    right = build(members, lo, hi, split_id, len + 1);
  } else if (mid == hi) {
    right = make_leaf(members[hi - 1], split_id, len + 1);
    left = build(members, lo, hi, prefix, len + 1);
  } else {
    left = build(members, lo, mid, prefix, len + 1);
    right = build(members, mid, hi, split_id, len + 1);
  }
  trie_[static_cast<std::size_t>(idx)].child[0] = left;
  trie_[static_cast<std::size_t>(idx)].child[1] = right;
  return idx;
}

int ZoneTree::leaf_containing(NodeId point) const {
  const int bits = net_->space().bits();
  int cur = 0;
  int depth = 0;
  while (!trie_[static_cast<std::size_t>(cur)].is_leaf) {
    cur = trie_[static_cast<std::size_t>(cur)].child[bit_at(point, depth,
                                                            bits)];
    ++depth;
  }
  return cur;
}

ZoneTree::Zone ZoneTree::zone(std::uint32_t node) const {
  const auto it = primary_leaf_.find(node);
  if (it == primary_leaf_.end()) {
    throw std::invalid_argument("ZoneTree::zone: not a member");
  }
  return trie_[static_cast<std::size_t>(it->second)].block;
}

std::vector<ZoneTree::Zone> ZoneTree::zones_of(std::uint32_t node) const {
  const auto it = leaves_of_.find(node);
  if (it == leaves_of_.end()) {
    throw std::invalid_argument("ZoneTree::zones_of: not a member");
  }
  std::vector<Zone> out;
  out.reserve(it->second.size());
  out.push_back(zone(node));
  const int primary = primary_leaf_.at(node);
  for (const int leaf : it->second) {
    if (leaf != primary) {
      out.push_back(trie_[static_cast<std::size_t>(leaf)].block);
    }
  }
  return out;
}

std::uint32_t ZoneTree::owner_of(NodeId point) const {
  return trie_[static_cast<std::size_t>(leaf_containing(point))].owner;
}

void ZoneTree::collect_leaf_owners(int trie_node,
                                   std::vector<std::uint32_t>& out) const {
  const TrieNode& t = trie_[static_cast<std::size_t>(trie_node)];
  if (t.is_leaf) {
    out.push_back(t.owner);
    return;
  }
  collect_leaf_owners(t.child[0], out);
  collect_leaf_owners(t.child[1], out);
}

void ZoneTree::block_owners(NodeId prefix, int len,
                            std::vector<std::uint32_t>& out) const {
  // Descend along `prefix`; stopping early at a leaf means one larger zone
  // covers the whole block.
  const int bits = net_->space().bits();
  int cur = 0;
  int depth = 0;
  while (depth < len && !trie_[static_cast<std::size_t>(cur)].is_leaf) {
    cur = trie_[static_cast<std::size_t>(cur)].child[bit_at(prefix, depth,
                                                            bits)];
    ++depth;
  }
  collect_leaf_owners(cur, out);
}

void ZoneTree::face_neighbors(std::uint32_t node, int pos,
                              std::vector<std::uint32_t>& out) const {
  const Zone z = zone(node);
  if (pos < 0 || pos >= z.len) {
    throw std::out_of_range("ZoneTree::face_neighbors: bad face position");
  }
  const int bits = net_->space().bits();
  block_owners(z.prefix ^ (NodeId{1} << (bits - 1 - pos)), z.len, out);
}

std::vector<std::uint32_t> ZoneTree::neighbors(std::uint32_t node) const {
  std::vector<std::uint32_t> out;
  const int bits = net_->space().bits();
  for (const Zone& z : zones_of(node)) {
    for (int pos = 0; pos < z.len; ++pos) {
      block_owners(z.prefix ^ (NodeId{1} << (bits - 1 - pos)), z.len, out);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), node), out.end());
  return out;
}

int ZoneTree::match_len(std::uint32_t node, NodeId key) const {
  const auto it = leaves_of_.find(node);
  if (it == leaves_of_.end()) {
    throw std::invalid_argument("ZoneTree::match_len: not a member");
  }
  const int bits = net_->space().bits();
  int best = 0;
  for (const int leaf : it->second) {
    const Zone& z = trie_[static_cast<std::size_t>(leaf)].block;
    const NodeId diff = (z.prefix ^ key) & net_->space().mask();
    const int m =
        diff == 0 ? z.len : std::min(bits - 1 - floor_log2(diff), z.len);
    best = std::max(best, m);
  }
  return best;
}

CanNetwork build_can(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.can_ms");
  const RingView ring = net.ring();
  auto tree = std::make_shared<const ZoneTree>(net, ring.members());
  LinkTable links =
      LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
        for (const std::uint32_t v : tree->neighbors(m)) row.push_back(v);
      });
  return CanNetwork{std::move(tree), std::move(links)};
}

CanKernel::CanKernel(const OverlayNetwork& net,
                     std::shared_ptr<const ZoneTree> tree,
                     const LinkTable& links)
    : net_(&net),
      tree_(std::move(tree)),
      links_(&links),
      max_hops_(hop_guard(net)) {}

template <typename Pick, typename Ctx>
Hop CanKernel::rank(const HopSite& site, NodeId key, std::uint64_t& state,
                    Pick& pick, const Ctx& ctx) const {
  const auto prev = static_cast<NodeIndex>(state >> 32) - 1;
  NodeIndex target;
  if ((state & 0xFFFFFFFFu) != 0) {
    target = static_cast<NodeIndex>(state & 0xFFFFFFFFu) - 1;
  } else if constexpr (Ctx::kActive) {
    target = live_owner(key, ctx.dead);
  } else {
    target = tree_->owner_of(key);
  }
  if (site.at == target) return Hop::kArrived;
  state = (std::uint64_t{site.at} + 1) << 32 | (std::uint64_t{target} + 1);
  // Bit fixing: neighbors growing the zone-prefix match, longest first.
  const int cur_match = tree_->match_len(site.at, key);
  for (std::size_t j = 0; j < site.count; ++j) {
    const NodeIndex nb = site.targets[j];
    if (nb == prev || !tree_->contains(nb)) continue;
    const int m = tree_->match_len(nb, key);
    if (m > cur_match) pick.offer(static_cast<Score>(m), j);
  }
  if (!pick.found()) {
    // Prefix matches cannot grow, but the key's zone may be a short
    // empty-sibling block owned by an adjacent node: a final hop to it.
    pick.tier(site.targets, site.ids, /*plain=*/true);
    const std::size_t j = detail::row_index(site, target);
    if (j != detail::kNoPick && target != prev) pick.offer(1, j);
  }
  if constexpr (Ctx::kActive) {
    if (!pick.found()) {
      // Second tier: a live neighbor strictly XOR-closer to the key.
      pick.tier(site.targets, site.ids, /*plain=*/false);
      const std::uint64_t mask = net_->space().mask();
      const std::uint64_t cur_d = (site.id ^ key) & mask;
      for (std::size_t j = 0; j < site.count; ++j) {
        const NodeIndex nb = site.targets[j];
        if (nb == prev || !tree_->contains(nb)) continue;
        const std::uint64_t d = (site.ids[j] ^ key) & mask;
        if (d < cur_d) pick.offer(cur_d - d, j);
      }
    }
  }
  return pick.found() ? Hop::kForward : Hop::kStuck;
}

NodeIndex CanKernel::live_owner(NodeId key, const FailureSet& dead) const {
  const NodeIndex structural = tree_->owner_of(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net_->space();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (NodeIndex i = 0; i < net_->size(); ++i) {
    if (dead.dead(i) || !tree_->contains(i)) continue;
    const std::uint64_t d = space.xor_distance(net_->id(i), key);
    if (best == RingView::kNone || d < best_d) {
      best = i;
      best_d = d;
    }
  }
  if (best == RingView::kNone) {
    throw std::logic_error("live_owner: everyone is dead");
  }
  return best;
}

template class GreedyRouter<CanKernel>;

}  // namespace canon
