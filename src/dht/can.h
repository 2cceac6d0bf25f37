// Binary-prefix-tree CAN (Section 3.4 of the paper).
//
// The paper generalizes CAN to a logarithmic-degree network whose node
// identifiers form a binary prefix tree: the path from the root to a leaf
// is a node's zone. Shorter IDs act as multiple virtual (padded) nodes, and
// edges are hypercube edges between virtual nodes (equivalently: zones
// adjacent across a one-bit prefix flip). Routing is left-to-right bit
// fixing on zone prefixes.
//
// Zone partition: the binary trie of the member IDs. Every member's
// *primary* zone is its shortest unique prefix, which always contains its
// own ID. Trie branches with members on only one side leave the empty
// sibling block uncovered; such blocks are assigned to the boundary member
// of the populated side (the classic CAN situation of a node owning more
// than one zone). The partition is a deterministic function of the member
// set, which dynamic-maintenance tests rely on.
#ifndef CANON_DHT_CAN_H
#define CANON_DHT_CAN_H

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

/// The CAN zone partition for one member set (see file comment).
class ZoneTree {
 public:
  /// Builds the partition for `members` (node indices sorted by ascending
  /// ID — domain member lists already are).
  ZoneTree(const OverlayNetwork& net, std::span<const std::uint32_t> members);

  struct Zone {
    NodeId prefix = 0;  ///< block start (aligned): top `len` bits meaningful
    int len = 0;        ///< prefix length in bits (0 = whole space)
  };

  std::size_t member_count() const { return primary_leaf_.size(); }
  bool contains(std::uint32_t node) const {
    return primary_leaf_.contains(node);
  }

  /// The primary zone of `node`: its shortest unique prefix among the
  /// members. Always contains the node's own ID.
  Zone zone(std::uint32_t node) const;

  /// Every zone owned by `node` (primary first).
  std::vector<Zone> zones_of(std::uint32_t node) const;

  /// The member owning the zone containing `point`.
  std::uint32_t owner_of(NodeId point) const;

  /// Owners of all zones adjacent to `node`'s *primary* zone across the
  /// face at prefix position `pos` (0 = most significant;
  /// pos < zone(node).len). Appends to `out`.
  void face_neighbors(std::uint32_t node, int pos,
                      std::vector<std::uint32_t>& out) const;

  /// All distinct CAN neighbors of `node`: every face of every owned zone,
  /// deduplicated, excluding `node` itself.
  std::vector<std::uint32_t> neighbors(std::uint32_t node) const;

  /// Longest prefix match between `key` and any zone owned by `node`
  /// (each zone's match is capped at its own length). Equals the zone
  /// length of the key's containing zone iff node owns the key.
  int match_len(std::uint32_t node, NodeId key) const;

 private:
  struct TrieNode {
    int child[2] = {-1, -1};  ///< -1 on a leaf
    std::uint32_t owner = 0;  ///< valid on leaves
    bool is_leaf = true;
    Zone block;
  };

  int build(std::span<const std::uint32_t> members, std::size_t lo,
            std::size_t hi, NodeId prefix, int len);
  int make_leaf(std::uint32_t owner, NodeId prefix, int len);
  int leaf_containing(NodeId point) const;
  void collect_leaf_owners(int trie_node, std::vector<std::uint32_t>& out) const;
  void block_owners(NodeId prefix, int len,
                    std::vector<std::uint32_t>& out) const;

  const OverlayNetwork* net_;
  std::vector<TrieNode> trie_;
  std::unordered_map<std::uint32_t, int> primary_leaf_;
  std::unordered_map<std::uint32_t, std::vector<int>> leaves_of_;
};

/// Builds the flat logarithmic-degree CAN network over all nodes.
/// The returned tree is what CanKernel ranks over.
struct CanNetwork {
  std::shared_ptr<const ZoneTree> tree;
  LinkTable links;
};
CanNetwork build_can(const OverlayNetwork& net);

/// Greedy bit-fixing kernel over a CAN zone partition: each hop moves to
/// the neighbor with the longest zone-prefix match with the key; when
/// prefix matches cannot grow, a hop to a neighbor owning the key is taken
/// (the key's zone may be a short empty-sibling block). The lookup ends at
/// the key's zone owner — under faults the zone takeover rule makes the
/// live member XOR-closest to the key the target. Second tier: a neighbor
/// strictly XOR-closer to the key. Cycle guard: never step back to the
/// node just left. Per-lookup state: (previous node + 1) << 32 | (target
/// + 1). `net` and `links` are borrowed; the zone tree is shared.
class CanKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = nullptr;

  CanKernel(const OverlayNetwork& net, std::shared_ptr<const ZoneTree> tree,
            const LinkTable& links);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

  /// The key's zone owner, or — when it is dead — the live member
  /// XOR-closest to the key (the takeover rule).
  NodeIndex live_owner(NodeId key, const FailureSet& dead) const;

 private:
  const OverlayNetwork* net_;
  std::shared_ptr<const ZoneTree> tree_;
  const LinkTable* links_;
  int max_hops_;
};

using CanRouter = GreedyRouter<CanKernel>;
extern template class GreedyRouter<CanKernel>;

}  // namespace canon

#endif  // CANON_DHT_CAN_H
