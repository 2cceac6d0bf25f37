// The static overlay-network model shared by every DHT construction.
//
// An OverlayNetwork is an immutable population of nodes, each with a unique
// N-bit identifier, a position in the conceptual hierarchy, and (optionally)
// an attachment point in a physical topology. Nodes are indexed 0..n-1 in
// ascending ID order; a DomainTree indexes every non-empty domain.
//
// Per-node metadata lives in structure-of-arrays form — one flat NodeId
// array, one packed domain-path pool, one attachment array — rather than an
// array of node structs. At mega-scale (10^6..10^7 nodes) this cuts the
// resident metadata from ~100 bytes per node (struct padding, a heap vector
// per path, allocator slop) to ~25, and the ID-only hot paths scan a dense
// NodeId array. The OverlayNode struct remains as a convenience view:
// node(i) materializes one on demand.
//
// A network can also be derived from another one join or leave earlier
// (dynamic maintenance): the derivation constructors splice the arrays and
// the domain tree instead of sorting and partitioning the population again,
// and the result equals a network constructed from the changed member list.
//
// Link construction (src/dht, src/canon) and routing (routing.h) are layered
// on top of this class; it owns no links itself.
#ifndef CANON_OVERLAY_OVERLAY_NETWORK_H
#define CANON_OVERLAY_OVERLAY_NETWORK_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/splice.h"
#include "hierarchy/domain_path.h"
#include "hierarchy/domain_tree.h"
#include "telemetry/mem_stats.h"

namespace canon {

/// One participant node, as supplied by the caller (and materialized on
/// demand by node(); the network itself stores structure-of-arrays).
struct OverlayNode {
  NodeId id = 0;        ///< unique identifier within the network's IdSpace
  DomainPath domain;    ///< position in the conceptual hierarchy
  std::int32_t attach = -1;  ///< router index in a physical topology, or -1
};

/// A search view over an ID-sorted member list (a "ring" in Chord terms).
/// Used for finger computation, responsibility lookups and range counting
/// within any domain. Cheap to copy; does not own the member list.
///
/// Searches come in two forms. successor_pos and the queries built on it
/// binary-search the whole list. seek gallops from a position the caller
/// already holds, so a run of searches for keys that move one way (finger
/// targets, bucket bounds, a zone's block ends) costs O(log gap) each
/// instead of O(log n); it is the only gallop in the library.
class RingView {
 public:
  RingView(const IdSpace& space, const std::vector<NodeId>& ids,
           std::span<const NodeIndex> members)
      : space_(space), ids_(ids.data()), members_(members) {}

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  NodeIndex at(std::size_t pos) const { return members_[pos]; }
  /// ID of the member at list position `pos`.
  NodeId id_at(std::size_t pos) const { return ids_[members_[pos]]; }
  std::span<const NodeIndex> members() const { return members_; }

  /// Position of the first member with ID >= key, wrapping to 0 past the
  /// end. Requires a non-empty view.
  std::size_t successor_pos(NodeId key) const;

  /// Position of the first member with ID >= key, or size() when there is
  /// none (no wrap), galloping from position `from` (0 <= from <= size())
  /// in whichever direction the key lies: O(log |answer - from|).
  std::size_t seek(NodeId key, std::size_t from) const;

  /// The member with the smallest ID >= key (wrapping): Chord's successor.
  NodeIndex successor(NodeId key) const;

  /// The member managing `key` under the paper's responsibility rule
  /// (footnote 3): largest ID <= key, wrapping.
  NodeIndex predecessor_or_self(NodeId key) const;

  /// The closest member at ring distance >= dist from `from` (the standard
  /// Chord finger target). `dist` may exceed the space size, in which case
  /// there is no such member and nullopt-like sentinel kNone is returned.
  NodeIndex first_at_distance(NodeId from, std::uint64_t dist) const;

  /// Number of members with ID in the wrapped interval [lo, lo+len).
  std::size_t count_in(NodeId lo, std::uint64_t len) const;

  /// Clockwise distance from `from` to the view's successor of `from`+1,
  /// i.e. to the nearest other member ahead. Returns the full ring size if
  /// the view contains only `from` itself.
  std::uint64_t successor_distance(NodeId from) const;

  static constexpr NodeIndex kNone = kInvalidNodeIndex;

 private:
  /// First position in [lo, hi) with ID >= key, or hi.
  std::size_t lower_pos(NodeId key, std::size_t lo, std::size_t hi) const;

  IdSpace space_;
  const NodeId* ids_;  // the network's ID array, indexed by node
  std::span<const NodeIndex> members_;
};

// Inline: the builders call these once per link, across libraries.

inline std::size_t RingView::lower_pos(NodeId key, std::size_t lo,
                                      std::size_t hi) const {
  const auto it = std::lower_bound(
      members_.begin() + static_cast<std::ptrdiff_t>(lo),
      members_.begin() + static_cast<std::ptrdiff_t>(hi), key,
      [this](NodeIndex m, NodeId k) { return ids_[m] < k; });
  return static_cast<std::size_t>(it - members_.begin());
}

inline std::size_t RingView::seek(NodeId key, std::size_t from) const {
  const std::size_t n = members_.size();
  // Gallop away from `from` with doubling steps until [lo, hi] brackets
  // the answer, then binary-search the bracket. Position n stands for a
  // member above every key.
  std::size_t lo;
  std::size_t hi;
  if (from < n && id_at(from) < key) {
    lo = from + 1;
    hi = lo;
    for (std::size_t step = 1; hi < n && id_at(hi) < key; step *= 2) {
      lo = hi + 1;
      hi = from + 2 * step;
    }
    hi = std::min(hi, n);
  } else {
    hi = from;
    lo = 0;
    for (std::size_t step = 1; step <= from; step *= 2) {
      if (id_at(from - step) < key) {
        lo = from - step + 1;
        break;
      }
      hi = from - step;
    }
  }
  return lower_pos(key, lo, hi);
}

/// Successor positions for a run of keys that move clockwise from `origin`
/// (finger targets, bucket bounds): each search gallops on from the last
/// answer (RingView::seek), restarting once from the front of the list when
/// the keys wrap past the top of the space.
class RingCursor {
 public:
  /// The first search gallops from position `from` (0 <= from <= size()).
  RingCursor(const RingView& ring, NodeId origin, std::size_t from)
      : ring_(&ring), origin_(origin), pos_(from) {}

  /// RingView::successor_pos(key). Exact for any key; cheap when each key
  /// lies clockwise of the last, within one turn from `origin`.
  std::size_t next(NodeId key) {
    if (!wrapped_ && key < origin_) {
      wrapped_ = true;
      pos_ = 0;
    }
    pos_ = ring_->seek(key, pos_);
    return pos_ == ring_->size() ? 0 : pos_;
  }

 private:
  const RingView* ring_;
  NodeId origin_;
  std::size_t pos_;
  bool wrapped_ = false;
};

/// Immutable node population. See file comment.
class OverlayNetwork {
 public:
  /// Sorts nodes by ID and indexes the hierarchy. Throws on duplicate IDs
  /// or IDs outside the space. (Convenience wrapper over the
  /// structure-of-arrays constructor below.)
  OverlayNetwork(IdSpace space, std::vector<OverlayNode> nodes);

  /// Structure-of-arrays constructor: parallel per-node arrays, index i
  /// describing node i (ids[i], paths[i], attach[i]); `attach` may be
  /// empty (no physical attachment). Sorts all arrays together by ID.
  /// This is the mega-scale entry point — nothing is ever held per node
  /// on the heap.
  OverlayNetwork(IdSpace space, std::vector<NodeId> ids, DomainPathPool paths,
                 std::vector<std::int32_t> attach = {});

  /// Derivation constructors: `prev` with `joiner` inserted at its
  /// lower_bound, or with node `leaver` erased. The ID array, path pool
  /// and attachments are spliced and the domain tree derived (see
  /// DomainTree's derivation constructor). Throws like the constructors
  /// above on an ID outside the space or a duplicate ID, and
  /// std::out_of_range on a leaver index >= prev.size().
  OverlayNetwork(const OverlayNetwork& prev, const OverlayNode& joiner);
  OverlayNetwork(const OverlayNetwork& prev, NodeIndex leaver);

  const IdSpace& space() const { return space_; }
  std::size_t size() const { return ids_.size(); }

  /// Materializes node `i` as an owning struct (allocates the path copy —
  /// convenience for examples/tests, not a hot path; hot paths use id(),
  /// path(), attach()).
  OverlayNode node(NodeIndex i) const {
    return OverlayNode{ids_[i], DomainPath(path(i)), attach(i)};
  }

  NodeId id(NodeIndex i) const { return ids_[i]; }

  /// Node `i`'s hierarchy position as a view into the packed path pool.
  DomainPathView path(NodeIndex i) const { return paths_.view(i); }

  /// Node `i`'s physical attachment (router index), or -1.
  std::int32_t attach(NodeIndex i) const {
    return attach_.empty() ? -1 : attach_[i];
  }

  /// All node IDs in ascending order (node index i -> ids()[i]).
  const std::vector<NodeId>& ids() const { return ids_; }

  const DomainTree& domains() const { return tree_; }

  /// View over the entire population.
  RingView ring() const;

  /// View over the members of domain `d` (a DomainTree index).
  RingView domain_ring(int d) const;

  /// The node responsible for `key` (largest ID <= key, wrapping).
  NodeIndex responsible(NodeId key) const;

  /// The node whose ID minimizes XOR distance to `key` (Kademlia target).
  NodeIndex xor_closest(NodeId key) const;

  /// Node index with the given ID; throws if absent.
  NodeIndex index_of(NodeId id) const;

  /// Depth of the lowest common domain of nodes a and b.
  int lca_level(NodeIndex a, NodeIndex b) const {
    return path(a).lca_depth(path(b));
  }

 private:
  /// ID-sorted, validated structure-of-arrays bundle (built in the .cc).
  struct Soa;
  static Soa sort_by_id(IdSpace space, std::vector<NodeId> ids,
                        DomainPathPool paths,
                        std::vector<std::int32_t> attach);
  static Soa soa_from_nodes(const std::vector<OverlayNode>& nodes);
  OverlayNetwork(IdSpace space, Soa soa);
  /// Both derivation constructors, on a validated change (`joiner` is
  /// null for an erase).
  OverlayNetwork(const OverlayNetwork& prev, IndexChange change,
                 const OverlayNode* joiner);
  /// (Re)charges the three metadata stores to the memory ledger.
  void charge_memory();

  IdSpace space_;
  std::vector<NodeId> ids_;           // ascending
  DomainPathPool paths_;              // packed, index-aligned with ids_
  std::vector<std::int32_t> attach_;  // index-aligned, or empty
  DomainTree tree_;
  // Ledger holdings for the three metadata stores (no-ops when no memory
  // accountant is installed; see telemetry/mem_stats.h).
  telemetry::MemCharge mem_soa_;
  telemetry::MemCharge mem_paths_;
  telemetry::MemCharge mem_tree_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_OVERLAY_NETWORK_H
