// Proximity adaptation (Section 3.6): group-based link construction.
//
// Nodes sharing the top T ID bits form a group; edge-creation rules apply
// to group IDs, and the concrete endpoint inside a target group is chosen
// as the lowest-latency node among up to `sample_size` sampled members
// (the paper cites s = 32 as sufficient). Nodes within a group form a
// separate dense network (here: a clique), "necessary even otherwise for
// replication and fault tolerance". T is chosen so groups have a constant
// expected size, kTargetGroupSize.
//
// Chord (Prox.) applies the group construction globally; Crescendo (Prox.)
// builds normal Crescendo rings below the root and applies the group
// construction only to the top-level merge.
#ifndef CANON_CANON_PROXIMITY_H
#define CANON_CANON_PROXIMITY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

struct ProximityConfig {
  int sample_size = 32;  ///< latency samples per group link (s)
};

/// Expected nodes per group: T = ceil(log2(n / kTargetGroupSize)).
inline constexpr std::size_t kTargetGroupSize = 16;

/// The grouping of an overlay's nodes by their top-T ID bits.
class GroupedOverlay {
 public:
  explicit GroupedOverlay(const OverlayNetwork& net);

  struct Group {
    NodeId gid = 0;
    std::vector<std::uint32_t> members;  ///< ascending by ID
  };

  /// Number of bits in a group ID (T). 0 means a single group.
  int prefix_bits() const { return prefix_bits_; }
  /// A zero-bit group ID is 0 (no shift: shifting a 64-bit ID by 64 is
  /// undefined).
  NodeId gid_of_key(NodeId key) const {
    return prefix_bits_ == 0 ? 0 : key >> shift_;
  }
  NodeId gid_of_node(std::uint32_t node) const;

  const std::vector<Group>& groups() const { return groups_; }
  int group_index_of(std::uint32_t node) const;

  /// Index of the first non-empty group with gid >= g (wrapping).
  int group_successor(NodeId g) const;

  /// Index of the group responsible for `key`: the largest non-empty gid
  /// <= the key's gid (wrapping).
  int responsible_group(NodeId key) const;

  /// The node answering `key` under group-based responsibility: the
  /// ring-predecessor of the key among the responsible group's members.
  std::uint32_t responsible(NodeId key) const;

  /// Clockwise distance between group IDs (mod 2^T).
  std::uint64_t group_distance(NodeId from_gid, NodeId to_gid) const;

 private:
  const OverlayNetwork* net_;
  int prefix_bits_ = 0;
  int shift_ = 0;
  std::vector<Group> groups_;            // ascending by gid
  std::vector<int> group_index_;         // per node
};

/// Flat Chord with proximity adaptation: the Chord rule on group IDs, a
/// latency-sampled endpoint per group link, plus intra-group cliques.
LinkTable build_chord_prox(const OverlayNetwork& net,
                           const GroupedOverlay& groups,
                           const HopCost& latency, const ProximityConfig& cfg,
                           Rng& rng);

/// Crescendo with proximity adaptation at the top level only.
LinkTable build_crescendo_prox(const OverlayNetwork& net,
                               const GroupedOverlay& groups,
                               const HopCost& latency,
                               const ProximityConfig& cfg, Rng& rng);

/// Group distance first, then clockwise ID progress: GroupKernel's score,
/// compared lexicographically. The zero score means no progress.
struct GroupScore {
  std::uint64_t groups = 0;
  std::uint64_t ids = 0;

  friend auto operator<=>(const GroupScore&, const GroupScore&) = default;
};

/// Two-phase greedy kernel for group-based structures: greedy clockwise
/// on group IDs (never overshooting the target's group), ties broken by
/// clockwise ID progress, then a final hop to the target over the dense
/// group network. The target is the group-responsible node — under faults
/// its closest live ring predecessor (the intra-group clique is
/// "necessary even otherwise for replication and fault tolerance"). Second
/// tier: the sidestep — a neighbor strictly closer to the target in (group
/// distance, ID distance) lexicographic order, which cannot cycle. Per
/// lookup state: the target + 1. `net` and `links` are borrowed; the
/// grouping is shared.
class GroupKernel {
 public:
  using Score = GroupScore;
  static constexpr const char* kCounterPrefix = nullptr;

  GroupKernel(const OverlayNetwork& net,
              std::shared_ptr<const GroupedOverlay> groups,
              const LinkTable& links);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  const GroupedOverlay& groups() const { return *groups_; }
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

  /// The group-responsible node for `key`, or — when it is dead — its
  /// closest live predecessor on the global ring.
  NodeIndex live_responsible(NodeId key, const FailureSet& dead) const;

 private:
  const OverlayNetwork* net_;
  std::shared_ptr<const GroupedOverlay> groups_;
  const LinkTable* links_;
  int max_hops_;
};

using GroupRouter = GreedyRouter<GroupKernel>;
extern template class GreedyRouter<GroupKernel>;

}  // namespace canon

#endif  // CANON_CANON_PROXIMITY_H
