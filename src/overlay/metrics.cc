#include "overlay/metrics.h"

#include <algorithm>
#include <unordered_set>

namespace canon {

double path_cost(const Route& route, const HopCost& cost) {
  double total = 0;
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    total += cost(route.path[i - 1], route.path[i]);
  }
  return total;
}

namespace {

/// Index of the first node of `second` that appears anywhere on `first`,
/// or second.path.size() if the paths never meet.
std::size_t first_meet(const Route& first, const Route& second) {
  std::unordered_set<std::uint32_t> on_first(first.path.begin(),
                                             first.path.end());
  for (std::size_t i = 0; i < second.path.size(); ++i) {
    if (on_first.contains(second.path[i])) return i;
  }
  return second.path.size();
}

}  // namespace

std::optional<double> hop_overlap_fraction(const Route& first,
                                           const Route& second) {
  const std::size_t total_hops = second.path.size() - 1;
  if (total_hops == 0) return std::nullopt;
  const std::size_t meet = first_meet(first, second);
  const std::size_t overlap_hops =
      meet >= second.path.size() ? 0 : (second.path.size() - 1 - meet);
  return static_cast<double>(overlap_hops) / static_cast<double>(total_hops);
}

std::optional<double> cost_overlap_fraction(const Route& first,
                                            const Route& second,
                                            const HopCost& cost) {
  const double total = path_cost(second, cost);
  if (total <= 0) return std::nullopt;
  const std::size_t meet = first_meet(first, second);
  double overlap = 0;
  for (std::size_t i = std::max<std::size_t>(meet, 1);
       i < second.path.size(); ++i) {
    if (i > meet) overlap += cost(second.path[i - 1], second.path[i]);
  }
  return overlap / total;
}

void MulticastTree::add_route(const Route& route) {
  for (std::size_t i = 1; i < route.path.size(); ++i) {
    edges_.insert(std::uint64_t{route.path[i - 1]} << 32 | route.path[i]);
  }
}

std::size_t MulticastTree::inter_domain_edges(const OverlayNetwork& net,
                                              int level) const {
  std::size_t count = 0;
  for (const std::uint64_t edge : edges_) {
    const auto from = static_cast<NodeIndex>(edge >> 32);
    const auto to = static_cast<NodeIndex>(edge & 0xFFFFFFFFu);
    if (net.lca_level(from, to) < level) ++count;
  }
  return count;
}

}  // namespace canon
