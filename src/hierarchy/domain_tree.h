// An index of the conceptual hierarchy over a concrete set of nodes.
//
// Canon's constructions repeatedly need "all nodes in the level-l domain of
// node m, sorted by identifier". DomainTree materializes every non-empty
// domain (every distinct path prefix) with its member list in ID-sorted
// order, plus the chain of domains each node belongs to, so constructions
// can run bottom-up in O(levels) lookups per node.
//
// Per-node chains live in one flat structure-of-arrays pool (an offsets
// array plus a packed chain array) instead of n separate vectors: at 10^6+
// nodes the pooled layout removes a 24-byte vector header and an allocator
// round-trip per node, and domain_chain() hands out spans into the pool.
//
// A tree can also be derived from the tree of the population one join or
// leave earlier (dynamic maintenance): when no domain opens or empties,
// every domain keeps its index, so the derivation shifts member indices
// past the change and splices the one changed chain.
#ifndef CANON_HIERARCHY_DOMAIN_TREE_H
#define CANON_HIERARCHY_DOMAIN_TREE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/splice.h"
#include "hierarchy/domain_path.h"

namespace canon {

/// One non-empty domain in the hierarchy.
struct Domain {
  int parent = -1;              ///< index of parent domain; -1 for root
  int depth = 0;                ///< 0 = root
  std::uint16_t branch = 0;     ///< branch index under the parent
  std::vector<int> children;    ///< indices of child domains
  std::vector<NodeIndex> members;  ///< node indices, ascending by node ID
};

/// Immutable index of all non-empty domains for a fixed node population.
///
/// Node `i` is described by `paths[i]`; `ids[i]` orders members within each
/// domain. Construction is O(n * depth) after an O(n log n) sort by ID
/// (skipped when the IDs already ascend).
class DomainTree {
 public:
  /// `paths` and `ids` must be the same length; IDs need not be sorted but
  /// must be unique.
  DomainTree(const std::vector<DomainPath>& paths,
             const std::vector<NodeId>& ids);

  /// Same, over a flat path pool: node i's branches occupy
  /// path_branches[path_offsets[i] .. path_offsets[i + 1]). This is the
  /// allocation-free entry point OverlayNetwork's structure-of-arrays
  /// storage uses; `path_offsets` has ids.size() + 1 entries.
  DomainTree(std::span<const std::uint32_t> path_offsets,
             std::span<const std::uint16_t> path_branches,
             const std::vector<NodeId>& ids);

  /// The tree after one change to `prev`'s population: the path pool and
  /// IDs are the changed population's, in the shape the constructor above
  /// takes, and equal `prev`'s arrays with node `change.at` inserted or
  /// erased. The IDs must ascend before and after the change (as every
  /// OverlayNetwork's do), so index order is member order. Every domain
  /// keeps its index: member indices shift by one past the change and the
  /// changed node's chain is spliced in or out.
  /// A change that opens or empties a domain indexes the arrays with the
  /// constructor above instead, because a domain's index depends on its
  /// siblings. Either way the result equals that constructor's.
  DomainTree(const DomainTree& prev, IndexChange change,
             std::span<const std::uint32_t> path_offsets,
             std::span<const std::uint16_t> path_branches,
             const std::vector<NodeId>& ids);

  std::size_t node_count() const { return chain_offsets_.size() - 1; }
  int domain_count() const { return static_cast<int>(domains_.size()); }
  const Domain& domain(int d) const {
    return domains_[static_cast<std::size_t>(d)];
  }
  int root() const { return 0; }

  /// The child of domain `d` taking branch `branch`, or -1 if no node
  /// occupies it.
  int child(int d, std::uint16_t branch) const;

  /// Maximum leaf-domain depth over all nodes (0 for a flat population).
  int max_depth() const { return max_depth_; }

  /// The domain containing node `node` at hierarchy level `level`
  /// (0 = root). `level` must not exceed the node's own depth.
  int domain_of(NodeIndex node, int level) const;

  /// Depth of node `node`'s leaf domain.
  int node_depth(NodeIndex node) const {
    return static_cast<int>(chain_offsets_[node + 1] - chain_offsets_[node]) -
           1;
  }

  /// All domains of node `node`, root first (a span into the flat chain
  /// pool; valid while the tree is alive).
  std::span<const std::int32_t> domain_chain(NodeIndex node) const {
    return {chains_.data() + chain_offsets_[node],
            static_cast<std::size_t>(chain_offsets_[node + 1] -
                                     chain_offsets_[node])};
  }

  /// Allocated bytes of the tree: the domain array (including every
  /// domain's children/members backing stores) plus the flat chain pool.
  /// Feeds the memory accountant's "hierarchy.domain_tree" tag.
  std::uint64_t memory_bytes() const;

 private:
  void build(std::span<const std::uint32_t> path_offsets,
             std::span<const std::uint16_t> path_branches,
             const std::vector<NodeId>& ids);

  std::vector<Domain> domains_;
  std::vector<std::uint32_t> chain_offsets_;  // n + 1; chain pool offsets
  std::vector<std::int32_t> chains_;          // packed root..leaf chains
  int max_depth_ = 0;
};

}  // namespace canon

#endif  // CANON_HIERARCHY_DOMAIN_TREE_H
