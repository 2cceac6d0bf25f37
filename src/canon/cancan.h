// Can-Can: the Canonical version of the binary-prefix-tree CAN
// (Section 3.4).
//
// Every domain of the hierarchy carries its own CAN zone partition over its
// members. A node keeps all CAN edges of its leaf domain's partition; at
// each higher level it keeps a face edge only if the edge is "shorter than
// the shortest link at the lower level" — on the virtual hypercube a face
// at prefix position i spans distance 2^(N-1-i), and the shortest
// lower-level link is the sibling face of the lower zone (2^(N - len)), so
// the rule keeps exactly the faces at positions >= len(lower zone).
//
// Routing proceeds stage by stage through progressively larger domains:
// within the current domain's partition the message greedily extends the
// prefix match with the key until it reaches the key's zone owner, then the
// stage lifts to the parent domain.
//
// The partitions are ZoneTree views over the domain member lists (no trie
// is built); CanCanZones adds one slot per (node, level) holding the
// node's domain there, its list position and its two LCPs, so the kernel
// decides a candidate's stage membership and prefix match from one slot.
#ifndef CANON_CANON_CANCAN_H
#define CANON_CANON_CANCAN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dht/can.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

/// The per-domain zone partitions of `net` plus the per-(node, level)
/// slots (see file comment). Borrows `net`, which must outlive it.
class CanCanZones {
 public:
  explicit CanCanZones(const OverlayNetwork& net);

  /// Node m's place in the partition of its level-l domain.
  struct Slot {
    std::int32_t domain = -1;  ///< DomainTree index; -1 below m's leaf
    std::uint32_t pos = 0;     ///< m's position in the domain's member list
    ZoneTree::Lcps lcps;       ///< m's LCPs there
  };

  const OverlayNetwork& net() const { return *net_; }

  /// Zone partition of domain `d` (a DomainTree index).
  const ZoneTree& tree(int d) const {
    return trees_[static_cast<std::size_t>(d)];
  }

  const Slot& slot(NodeIndex m, int level) const {
    return slots_[m * stride_ + static_cast<std::size_t>(level)];
  }

  /// The node that should answer `key` (owner of the key's zone in the
  /// root partition).
  std::uint32_t responsible(NodeId key) const;

 private:
  const OverlayNetwork* net_;
  std::vector<ZoneTree> trees_;  // by domain index
  std::size_t stride_;           // levels per node: max_depth + 1
  std::vector<Slot> slots_;      // node-major
};

/// Builds the Can-Can link table (see file comment).
LinkTable build_cancan(const OverlayNetwork& net);

/// Staged greedy kernel over the Can-Can partitions (see file comment):
/// within the stage domain's partition, bit fixing toward the key, then a
/// hop to the neighbor owning the key's stage zone, then — for faces the
/// merge filter removed — a neighbor strictly XOR-closer to the key.
/// Reaching the stage owner lifts the stage to the parent domain without
/// a hop; the lookup ends at the root partition's owner. Under faults a
/// dead stage owner's zone is taken over by the live stage member
/// XOR-closest to the key (every stage domain contains the live source, so
/// a takeover always exists). Cycle guard: never step back to the node
/// just left. Per-lookup state: (previous node + 1) << 32 | (stage domain
/// + 1). `net` and `links` are borrowed; the zones, which must be `net`'s,
/// are shared.
class CanCanKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = nullptr;

  CanCanKernel(const OverlayNetwork& net,
               std::shared_ptr<const CanCanZones> zones,
               const LinkTable& links);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  /// 8·bits+16: the staged walk needs a wider guard than the one-stage
  /// kernels' 4·bits+16.
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

 private:
  /// The stage partition's key owner, or its live takeover within domain
  /// `d` (see class comment).
  NodeIndex live_stage_owner(int d, NodeId key, const FailureSet& dead) const;

  const OverlayNetwork* net_;
  std::shared_ptr<const CanCanZones> zones_;
  const LinkTable* links_;
  int max_hops_;
};

using CanCanRouter = GreedyRouter<CanCanKernel>;
extern template class GreedyRouter<CanCanKernel>;

}  // namespace canon

#endif  // CANON_CANON_CANCAN_H
