#include "dht/can.h"

#include <algorithm>
#include <stdexcept>

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
  ZoneTree tree(net, ring.members());
  LinkTable links =
      LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
        for (const std::uint32_t v : tree.neighbors(m)) row.push_back(v);
      });
  return CanNetwork{std::move(tree), std::move(links)};
}

CanRouter::CanRouter(const OverlayNetwork& net, const ZoneTree& tree,
                     const LinkTable& links)
    : net_(&net),
      tree_(&tree),
      links_(&links),
      max_hops_(4 * net.space().bits() + 16) {
}

Route CanRouter::route(std::uint32_t from, NodeId key) const {
  Route r;
  r.path.push_back(from);
  std::uint32_t current = from;
  for (int step = 0; step < max_hops_; ++step) {
    if (tree_->owner_of(key) == current) {
      r.ok = true;
      return r;
    }
    const int cur_match = tree_->match_len(current, key);
    std::uint32_t best = current;
    int best_match = cur_match;
    for (const std::uint32_t nb : links_->neighbors(current)) {
      if (!tree_->contains(nb)) continue;
      const int m = tree_->match_len(nb, key);
      if (m > best_match) {
        best_match = m;
        best = nb;
      }
    }
    if (best == current) {
      // Prefix matches cannot grow, but the key's zone may be a short
      // empty-sibling block owned by an adjacent node: take a final hop to
      // a neighbor that owns the key.
      for (const std::uint32_t nb : links_->neighbors(current)) {
        if (tree_->contains(nb) && tree_->owner_of(key) == nb) {
          best = nb;
          break;
        }
      }
    }
    if (best == current) {
      r.ok = false;  // stuck
      return r;
    }
    current = best;
    r.path.push_back(current);
  }
  r.ok = false;
  return r;
}

namespace {

bool in_list(const std::vector<std::uint32_t>& list, std::uint32_t node) {
  return std::find(list.begin(), list.end(), node) != list.end();
}

struct NullRecorder {
  void operator()(std::uint32_t) const {}
};

struct PathRecorder {
  std::vector<std::uint32_t>* path;
  void operator()(std::uint32_t node) const { path->push_back(node); }
};

}  // namespace

ResilientCanRouter::ResilientCanRouter(const OverlayNetwork& net,
                                       const ZoneTree& tree,
                                       const LinkTable& links,
                                       int retry_budget)
    : net_(&net),
      tree_(&tree),
      links_(&links),
      retry_budget_(retry_budget),
      max_hops_(4 * net.space().bits() + 16) {
  if (retry_budget < 1) {
    throw std::invalid_argument("ResilientCanRouter: retry budget < 1");
  }
}

std::uint32_t ResilientCanRouter::live_owner(NodeId key,
                                             const FailureSet& dead) const {
  const std::uint32_t structural = tree_->owner_of(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net_->space();
  std::uint32_t best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (std::uint32_t i = 0; i < net_->size(); ++i) {
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

template <typename Recorder>
ResilientProbe ResilientCanRouter::core(std::uint32_t from, NodeId key,
                                        const FailureSet& dead,
                                        DropRoller& drops, Scratch& scratch,
                                        Recorder&& record) const {
  if (dead.dead(from)) {
    throw std::invalid_argument("ResilientCanRouter: source is dead");
  }
  const IdSpace& space = net_->space();
  const bool faults = dead.any() || drops.active();
  const std::uint32_t target =
      faults ? live_owner(key, dead) : tree_->owner_of(key);
  std::uint32_t current = from;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  scratch.visited.clear();
  for (int step = 0; step < max_hops_; ++step) {
    if (current == target) return {current, hops, true, retries, fallback_hops};
    const int cur_match = tree_->match_len(current, key);
    scratch.banned.clear();
    int attempts = retry_budget_;
    for (;;) {  // per-hop retry ladder
      // Stage 1: the plain bit-fixing scan over live, unbanned neighbors.
      std::uint32_t best = current;
      int best_match = cur_match;
      for (const std::uint32_t nb : links_->neighbors(current)) {
        if (!tree_->contains(nb)) continue;
        if (faults && (dead.dead(nb) || in_list(scratch.banned, nb) ||
                       in_list(scratch.visited, nb))) {
          continue;
        }
        const int m = tree_->match_len(nb, key);
        if (m > best_match) {
          best_match = m;
          best = nb;
        }
      }
      if (best == current) {
        // Final hop: a neighbor that is the target itself (the key's zone
        // may be a short empty-sibling block owned by an adjacent node).
        for (const std::uint32_t nb : links_->neighbors(current)) {
          if (!tree_->contains(nb) || nb != target) continue;
          if (faults && in_list(scratch.banned, nb)) continue;
          best = nb;
          break;
        }
      }
      bool via_fallback = false;
      if (best == current && faults) {
        // Stage 2: live-face fallback — an unvisited live neighbor
        // strictly XOR-closer to the key.
        std::uint64_t best_d = space.xor_distance(net_->id(current), key);
        for (const std::uint32_t nb : links_->neighbors(current)) {
          if (!tree_->contains(nb) || dead.dead(nb) ||
              in_list(scratch.banned, nb) || in_list(scratch.visited, nb)) {
            continue;
          }
          const std::uint64_t d = space.xor_distance(net_->id(nb), key);
          if (d < best_d) {
            best_d = d;
            best = nb;
          }
        }
        via_fallback = best != current;
      }
      if (best == current) {
        return {current, hops, false, retries, fallback_hops};  // stuck
      }
      if (drops.drop()) {
        scratch.banned.push_back(best);
        ++retries;
        if (--attempts <= 0) {
          return {current, hops, false, retries, fallback_hops};  // lost
        }
        continue;
      }
      if (via_fallback) ++fallback_hops;
      current = best;
      ++hops;
      record(current);
      if (faults) scratch.visited.push_back(current);
      break;
    }
  }
  return {current, hops, false, retries, fallback_hops};
}

ResilientProbe ResilientCanRouter::route_into(std::uint32_t from, NodeId key,
                                              const FailureSet& dead,
                                              DropRoller& drops,
                                              Scratch& scratch,
                                              Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  out.ok = false;
  const ResilientProbe p =
      core(from, key, dead, drops, scratch, PathRecorder{&out.path});
  out.ok = p.ok;
  return p;
}

ResilientProbe ResilientCanRouter::probe(std::uint32_t from, NodeId key,
                                         const FailureSet& dead,
                                         DropRoller& drops,
                                         Scratch& scratch) const {
  return core(from, key, dead, drops, scratch, NullRecorder{});
}

}  // namespace canon
