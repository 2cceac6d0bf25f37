// The CAN zone partition as an explicit binary trie, built straight from
// its definition (dht/can.h): split every span of two or more members at
// the next bit; a half with no member goes to the boundary member of the
// populated half; a lone member's span is its primary zone. Queries scan
// the leaves, so the oracle shares no code with ZoneTree's closed form.
#ifndef CANON_TESTS_ZONE_ORACLE_H
#define CANON_TESTS_ZONE_ORACLE_H

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "dht/can.h"
#include "overlay/overlay_network.h"

namespace canon::oracle {

class ZoneTrie {
 public:
  using Zone = ZoneTree::Zone;

  ZoneTrie(const OverlayNetwork& net, std::span<const NodeIndex> members)
      : net_(&net), bits_(net.space().bits()) {
    split(members, 0, 0);
  }

  Zone zone(NodeIndex node) const { return zones_of(node).front(); }

  /// Primary zone first, then the others in the order the trie made them.
  std::vector<Zone> zones_of(NodeIndex node) const {
    std::vector<Zone> out;
    for (const Leaf& l : leaves_) {
      if (l.owner != node) continue;
      if (contains(l.zone, net_->id(node))) {
        out.insert(out.begin(), l.zone);
      } else {
        out.push_back(l.zone);
      }
    }
    return out;
  }

  NodeIndex owner_of(NodeId point) const {
    for (const Leaf& l : leaves_) {
      if (contains(l.zone, point)) return l.owner;
    }
    return kInvalidNodeIndex;
  }

  /// Owners of every leaf overlapping the aligned block z.
  std::set<NodeIndex> block_owners(Zone z) const {
    std::set<NodeIndex> out;
    for (const Leaf& l : leaves_) {
      if (contains(l.zone, z.prefix) || contains(z, l.zone.prefix)) {
        out.insert(l.owner);
      }
    }
    return out;
  }

  std::set<NodeIndex> face_neighbors(NodeIndex node, int pos) const {
    const Zone z = zone(node);
    return block_owners({z.prefix ^ bit(pos), z.len});
  }

  std::vector<NodeIndex> neighbors(NodeIndex node) const {
    std::set<NodeIndex> out;
    for (const Zone& z : zones_of(node)) {
      for (int pos = 0; pos < z.len; ++pos) {
        const auto face = block_owners({z.prefix ^ bit(pos), z.len});
        out.insert(face.begin(), face.end());
      }
    }
    out.erase(node);
    return {out.begin(), out.end()};
  }

  int match_len(NodeIndex node, NodeId key) const {
    int best = 0;
    for (const Zone& z : zones_of(node)) {
      int m = 0;
      while (m < z.len && ((z.prefix ^ key) & bit(m)) == 0) ++m;
      best = std::max(best, m);
    }
    return best;
  }

 private:
  struct Leaf {
    Zone zone;
    NodeIndex owner;
  };

  NodeId bit(int pos) const { return NodeId{1} << (bits_ - 1 - pos); }

  bool contains(Zone z, NodeId x) const {
    return z.len == 0 || ((z.prefix ^ x) >> (bits_ - z.len)) == 0;
  }

  void split(std::span<const NodeIndex> span, NodeId prefix, int len) {
    if (span.size() == 1) {
      leaves_.push_back({{prefix, len}, span[0]});
      return;
    }
    const auto ones = std::partition_point(
        span.begin(), span.end(),
        [&](NodeIndex m) { return (net_->id(m) & bit(len)) == 0; });
    const auto k = static_cast<std::size_t>(ones - span.begin());
    if (k == 0) {  // empty 0-half: the smallest member owns it
      leaves_.push_back({{prefix, len + 1}, span.front()});
      split(span, prefix | bit(len), len + 1);
    } else if (k == span.size()) {  // empty 1-half: the largest owns it
      leaves_.push_back({{prefix | bit(len), len + 1}, span.back()});
      split(span, prefix, len + 1);
    } else {
      split(span.first(k), prefix, len + 1);
      split(span.subspan(k), prefix | bit(len), len + 1);
    }
  }

  const OverlayNetwork* net_;
  int bits_;
  std::vector<Leaf> leaves_;
};

}  // namespace canon::oracle

#endif  // CANON_TESTS_ZONE_ORACLE_H
