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
//
// No trie is stored: a member's zones are a closed-form function of its ID
// and its two ID-order neighbours. Take the member at position i of the
// ID-sorted list, and let p and s be the bit-LCPs of its ID with its
// predecessor's and its successor's (-1 where there is no such neighbour).
// * Its primary zone is its ID's first L = 1 + max(p, s) bits (L = 0 for a
//   lone member).
// * It also owns one empty-sibling block for each depth d with
//   min(p, s) < d < max(p, s) at which its bit d is 1 and p < s, or 0 and
//   p > s: the sibling, of length d + 1, of its own (d + 1)-bit prefix.
// * Together these zones tile the interval between its split points with
//   its two neighbours, so the owner of a point is the XOR-closer of the
//   point's two list neighbours, and the owners of an aligned block are the
//   contiguous run of members from the owner of its first point to the
//   owner of its last.
// * With q = LCP(ID, key), the longest prefix match between the key and
//   any of its zones is L if q >= L, q + 1 if q is one of its
//   empty-sibling depths, and q otherwise.
#ifndef CANON_DHT_CAN_H
#define CANON_DHT_CAN_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

/// The CAN zone partition of one member list (see file comment): a view
/// over the ID-sorted list through a RingView, whose gallop (RingView::seek)
/// finds a block's owners from the member's own position. Cheap to copy;
/// it owns nothing, so `net` and the member list must outlive it. The
/// builders and the CAN/Can-Can kernels pass list positions they already
/// know.
class ZoneTree {
 public:
  /// Views `members` (node indices sorted by strictly ascending ID — domain
  /// member lists already are). Throws std::invalid_argument when the list
  /// is empty or not strictly ascending.
  ZoneTree(const OverlayNetwork& net, std::span<const std::uint32_t> members);

  struct Zone {
    NodeId prefix = 0;  ///< block start (aligned): top `len` bits meaningful
    int len = 0;        ///< prefix length in bits (0 = whole space)
  };

  /// Bit-LCPs of a member's ID with its list predecessor's and successor's
  /// IDs, -1 where there is no such neighbour. They fix its zones.
  struct Lcps {
    std::int8_t pred = -1;
    std::int8_t succ = -1;
  };

  /// The LCPs of the member at list position `pos`.
  Lcps lcps(std::size_t pos) const;

  /// Length of the primary zone of a member with these LCPs.
  static int primary_len(Lcps l) { return 1 + std::max(l.pred, l.succ); }

  /// Longest prefix match between `key` and any zone of the member with
  /// ID `id` and LCPs `l` in a `bits`-bit space (the closed form of the
  /// file comment; a few bit operations).
  static int match_len(NodeId id, Lcps l, NodeId key, int bits);

  /// Appends the owners of the zones adjacent to the primary zone of the
  /// member at `pos` across the face at prefix position `face`
  /// (face < its primary length).
  void append_face_owners(std::size_t pos, int face,
                          std::vector<std::uint32_t>& out) const;

  /// Appends the owners across every face of every zone of the member at
  /// `pos`. May repeat a node and include the member itself.
  void append_neighbors(std::size_t pos, std::vector<std::uint32_t>& out) const;

  // Node-index API, for the auditor and tests: each call searches the
  // list; given a non-member node, contains returns false and the others
  // throw std::invalid_argument.

  bool contains(std::uint32_t node) const { return position(node) != kNoPos; }

  /// The primary zone of `node`: its shortest unique prefix among the
  /// members. Always contains the node's own ID.
  Zone zone(std::uint32_t node) const;

  /// Every zone owned by `node`: primary first, then its empty-sibling
  /// blocks by increasing length.
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
  int match_len(std::uint32_t node, NodeId key) const {
    const std::size_t pos = checked_position(node, "ZoneTree::match_len");
    return match_len(id_at(pos), lcps(pos), key, bits_);
  }

 private:
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  NodeId id_at(std::size_t pos) const { return ring_.id_at(pos); }
  /// List position of `node`, or kNoPos when it is not a member.
  std::size_t position(std::uint32_t node) const;
  std::size_t checked_position(std::uint32_t node, const char* what) const;
  /// The aligned block of `len` bits holding `x`.
  Zone block(NodeId x, int len) const;
  /// The member owning `point`, given the position of its first member
  /// with ID >= point (the list size when there is none).
  std::size_t resolve_owner(std::size_t succ, NodeId point) const;
  /// Appends the owners of the aligned block `prefix`/`len`, searching
  /// from position `from`.
  void append_block_owners(NodeId prefix, int len, std::size_t from,
                           std::vector<std::uint32_t>& out) const;
  /// Calls fn(Zone) for every zone of the member at `pos`, in zones_of
  /// order.
  template <typename Fn>
  void for_each_zone(std::size_t pos, Fn&& fn) const;

  RingView ring_;      // the member list, searched by position
  const NodeId* ids_;  // node index -> ID, for the node-index API
  int bits_;
  NodeId mask_;
};

inline int ZoneTree::match_len(NodeId id, Lcps l, NodeId key, int bits) {
  const int len = primary_len(l);
  const int shift = 64 - bits;
  // q = LCP(id, key); bits of the key above the space are shifted out.
  const int q = std::countl_zero((id ^ key) << shift);
  if (q >= len) return len;
  // The key's first differing bit enters the empty-sibling block at depth
  // q when this member owns it.
  const bool extra = q > std::min(l.pred, l.succ) && q + 1 < len &&
                     (((id << shift) >> (63 - q)) & 1) ==
                         static_cast<NodeId>(l.pred < l.succ);
  return extra ? q + 1 : q;
}

/// Builds the flat logarithmic-degree CAN network over all nodes.
LinkTable build_can(const OverlayNetwork& net);

/// Greedy bit-fixing kernel over the CAN zone partition of the whole
/// ring: each hop moves to the neighbor with the longest zone-prefix match
/// with the key; when prefix matches cannot grow, a hop to a neighbor
/// owning the key is taken (the key's zone may be a short empty-sibling
/// block). The lookup ends at the key's zone owner — under faults the zone
/// takeover rule makes the live member XOR-closest to the key the target.
/// Second tier: a neighbor strictly XOR-closer to the key. Cycle guard:
/// never step back to the node just left. Per-lookup state: (previous
/// node + 1) << 32 | (target + 1). `net` and `links` are borrowed. The
/// ring lists every node in index order, so a node's list position is its
/// index.
class CanKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = nullptr;

  CanKernel(const OverlayNetwork& net, const LinkTable& links);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  const ZoneTree& tree() const { return tree_; }
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

  /// The key's zone owner, or — when it is dead — the live member
  /// XOR-closest to the key (the takeover rule).
  NodeIndex live_owner(NodeId key, const FailureSet& dead) const;

 private:
  const OverlayNetwork* net_;
  ZoneTree tree_;
  const LinkTable* links_;
  int max_hops_;
};

using CanRouter = GreedyRouter<CanKernel>;
extern template class GreedyRouter<CanKernel>;

}  // namespace canon

#endif  // CANON_DHT_CAN_H
