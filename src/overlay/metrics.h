// Path-level metrics used by the evaluation (Sections 5.3 and 5.4):
// overlap fractions between converging query paths, per-path latency, and
// multicast trees formed by the union of reverse query paths.
#ifndef CANON_OVERLAY_METRICS_H
#define CANON_OVERLAY_METRICS_H

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>

#include "overlay/overlay_network.h"
#include "overlay/routing.h"

namespace canon {

/// Latency (or any additive cost) of a directed overlay hop.
using HopCost = std::function<double(std::uint32_t, std::uint32_t)>;

/// Total cost of a route under `cost`; 0 for single-node paths.
double path_cost(const Route& route, const HopCost& cost);

/// Fraction of `second`'s hops that overlap with `first` (Section 5.4).
///
/// Both routes must target the same key with deterministic routing, so once
/// `second` reaches any node on `first` the two paths coincide; the overlap
/// is that common suffix. Returns nullopt when `second` has no hops.
std::optional<double> hop_overlap_fraction(const Route& first,
                                           const Route& second);

/// Same, weighting hops by `cost` (the paper's latency overlap fraction).
/// Returns nullopt when `second` has zero total cost.
std::optional<double> cost_overlap_fraction(const Route& first,
                                            const Route& second,
                                            const HopCost& cost);

/// The multicast tree induced by routing from many sources to one common
/// destination: the union of the (directed) query-path edges.
class MulticastTree {
 public:
  void add_route(const Route& route);

  /// Number of distinct edges in the tree.
  std::size_t edge_count() const { return edges_.size(); }

  /// Number of distinct edges whose endpoints do NOT share a domain at
  /// depth `level` (i.e. edges crossing a level-`level` domain boundary).
  std::size_t inter_domain_edges(const OverlayNetwork& net, int level) const;

 private:
  std::unordered_set<std::uint64_t> edges_;  // from << 32 | to
};

}  // namespace canon

#endif  // CANON_OVERLAY_METRICS_H
