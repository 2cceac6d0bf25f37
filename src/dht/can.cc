#include "dht/can.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "overlay/greedy_walk.h"
#include "telemetry/scoped_timer.h"

namespace canon {

ZoneTree::ZoneTree(const OverlayNetwork& net,
                   std::span<const std::uint32_t> members)
    : ring_(net.space(), net.ids(), members),
      ids_(net.ids().data()),
      bits_(net.space().bits()),
      mask_(net.space().mask()) {
  if (members.empty()) throw std::invalid_argument("ZoneTree: no members");
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (id_at(i - 1) >= id_at(i)) {
      throw std::invalid_argument("ZoneTree: members must be ID-sorted");
    }
  }
}

std::size_t ZoneTree::position(std::uint32_t node) const {
  const std::size_t pos = ring_.successor_pos(ids_[node]);
  return ring_.at(pos) == node ? pos : kNoPos;
}

std::size_t ZoneTree::checked_position(std::uint32_t node,
                                       const char* what) const {
  const std::size_t pos = position(node);
  if (pos == kNoPos) {
    throw std::invalid_argument(std::string(what) + ": not a member");
  }
  return pos;
}

ZoneTree::Lcps ZoneTree::lcps(std::size_t pos) const {
  const int shift = 64 - bits_;
  const NodeId id = id_at(pos);
  Lcps l;
  if (pos > 0) {
    l.pred = static_cast<std::int8_t>(
        std::countl_zero((id_at(pos - 1) ^ id) << shift));
  }
  if (pos + 1 < ring_.size()) {
    l.succ = static_cast<std::int8_t>(
        std::countl_zero((id_at(pos + 1) ^ id) << shift));
  }
  return l;
}

std::size_t ZoneTree::resolve_owner(std::size_t succ, NodeId point) const {
  if (succ == 0) return 0;
  if (succ == ring_.size()) return succ - 1;
  // The zones of consecutive members meet at their split point: the owner
  // is whichever of the two shares the longer prefix with the point.
  return (id_at(succ - 1) ^ point) < (id_at(succ) ^ point) ? succ - 1 : succ;
}

std::uint32_t ZoneTree::owner_of(NodeId point) const {
  point &= mask_;
  // successor_pos wraps to 0 past the last member; the owner rule wants
  // the list end there.
  std::size_t succ = ring_.successor_pos(point);
  if (succ == 0 && id_at(0) < point) succ = ring_.size();
  return ring_.at(resolve_owner(succ, point));
}

void ZoneTree::append_block_owners(NodeId prefix, int len, std::size_t from,
                                   std::vector<std::uint32_t>& out) const {
  const NodeId last_point = prefix | (len >= 64 ? 0 : mask_ >> len);
  const std::size_t first = resolve_owner(ring_.seek(prefix, from), prefix);
  const std::size_t last =
      resolve_owner(ring_.seek(last_point, first), last_point);
  const auto members = ring_.members();
  out.insert(out.end(), members.begin() + static_cast<std::ptrdiff_t>(first),
             members.begin() + static_cast<std::ptrdiff_t>(last) + 1);
}

ZoneTree::Zone ZoneTree::block(NodeId x, int len) const {
  return Zone{x & ~(len >= 64 ? 0 : mask_ >> len) & mask_, len};
}

template <typename Fn>
void ZoneTree::for_each_zone(std::size_t pos, Fn&& fn) const {
  const NodeId id = id_at(pos);
  const Lcps l = lcps(pos);
  const int len = primary_len(l);
  fn(block(id, len));
  // Empty-sibling blocks: strictly between the two LCPs the member's trie
  // span reaches only toward its nearer neighbour. Where its bit points
  // away from that neighbour, the half of the span behind it is empty and
  // the member, the span's boundary member, owns that half.
  const bool owned_bit = l.pred < l.succ;
  for (int d = std::min(l.pred, l.succ) + 1; d + 1 < len; ++d) {
    const NodeId bit = NodeId{1} << (bits_ - 1 - d);
    if (((id & bit) != 0) == owned_bit) fn(block(id ^ bit, d + 1));
  }
}

void ZoneTree::append_face_owners(std::size_t pos, int face,
                                  std::vector<std::uint32_t>& out) const {
  const Zone z = block(id_at(pos), primary_len(lcps(pos)));
  append_block_owners(z.prefix ^ (NodeId{1} << (bits_ - 1 - face)), z.len,
                      pos, out);
}

void ZoneTree::append_neighbors(std::size_t pos,
                                std::vector<std::uint32_t>& out) const {
  for_each_zone(pos, [&](const Zone& z) {
    for (int face = 0; face < z.len; ++face) {
      append_block_owners(z.prefix ^ (NodeId{1} << (bits_ - 1 - face)), z.len,
                          pos, out);
    }
  });
}

ZoneTree::Zone ZoneTree::zone(std::uint32_t node) const {
  const std::size_t pos = checked_position(node, "ZoneTree::zone");
  return block(id_at(pos), primary_len(lcps(pos)));
}

std::vector<ZoneTree::Zone> ZoneTree::zones_of(std::uint32_t node) const {
  std::vector<Zone> out;
  for_each_zone(checked_position(node, "ZoneTree::zones_of"),
                [&](const Zone& z) { out.push_back(z); });
  return out;
}

void ZoneTree::face_neighbors(std::uint32_t node, int pos,
                              std::vector<std::uint32_t>& out) const {
  const std::size_t at = checked_position(node, "ZoneTree::face_neighbors");
  if (pos < 0 || pos >= primary_len(lcps(at))) {
    throw std::out_of_range("ZoneTree::face_neighbors: bad face position");
  }
  append_face_owners(at, pos, out);
}

std::vector<std::uint32_t> ZoneTree::neighbors(std::uint32_t node) const {
  std::vector<std::uint32_t> out;
  append_neighbors(checked_position(node, "ZoneTree::neighbors"), out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), node), out.end());
  return out;
}

LinkTable build_can(const OverlayNetwork& net) {
  telemetry::ScopedTimer timer("build.can_ms");
  // The ring lists every node in index order: position m is node m.
  const ZoneTree tree(net, net.ring().members());
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    tree.append_neighbors(m, row);
  });
}

CanKernel::CanKernel(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net),
      tree_(net, net.ring().members()),
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
    target = tree_.owner_of(key);
  }
  if (site.at == target) return Hop::kArrived;
  state = (std::uint64_t{site.at} + 1) << 32 | (std::uint64_t{target} + 1);
  // Bit fixing: neighbors growing the zone-prefix match, longest first.
  const int bits = net_->space().bits();
  const int cur_match =
      ZoneTree::match_len(site.id, tree_.lcps(site.at), key, bits);
  for (std::size_t j = 0; j < site.count; ++j) {
    const NodeIndex nb = site.targets[j];
    if (nb == prev) continue;
    const int m = ZoneTree::match_len(site.ids[j], tree_.lcps(nb), key, bits);
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
        if (nb == prev) continue;
        const std::uint64_t d = (site.ids[j] ^ key) & mask;
        if (d < cur_d) pick.offer(cur_d - d, j);
      }
    }
  }
  return pick.found() ? Hop::kForward : Hop::kStuck;
}

NodeIndex CanKernel::live_owner(NodeId key, const FailureSet& dead) const {
  const NodeIndex structural = tree_.owner_of(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net_->space();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (NodeIndex i = 0; i < net_->size(); ++i) {
    if (dead.dead(i)) continue;
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
