#include "maintenance/dynamic_crescendo.h"

#include <algorithm>
#include <stdexcept>

#include "canon/crescendo.h"
#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/scoped_timer.h"

namespace canon {

namespace {

/// Nodes of `net` whose links can involve node `pivot` (pivot excluded),
/// as ascending indices into `net`:
///  * per level ring R of pivot's chain, per finger distance 2^k: members
///    x with x.id + 2^k in (pred(pivot), pivot] now/then have pivot as the
///    closest node at distance >= 2^k;
///  * the predecessor of pivot in each ring (its merge limit depends on
///    its successor distance, which pivot changes).
std::vector<NodeIndex> affected_nodes(const OverlayNetwork& net,
                                      NodeIndex pivot) {
  const IdSpace& space = net.space();
  std::vector<NodeIndex> out;
  const NodeId pid = net.id(pivot);
  for (const int d : net.domains().domain_chain(pivot)) {
    const RingView ring = net.domain_ring(d);
    if (ring.size() < 2) continue;
    // Predecessor of pivot in this ring.
    const NodeIndex pred =
        ring.predecessor_or_self(space.advance(pid, space.mask()));
    out.push_back(pred);
    const std::uint64_t gap = space.ring_distance(net.id(pred), pid);
    for (int k = 0; k < space.bits(); ++k) {
      const std::uint64_t dist = std::uint64_t{1} << k;
      // x with x.id in (pid - 2^k - gap, pid - 2^k] (wrapping): for these,
      // x.id + 2^k lands in (pred, pivot].
      const NodeId lo = space.advance(pid, space.mask() + 1 - dist - gap +
                                               1);  // pid - dist - gap + 1
      const std::size_t count = ring.count_in(lo, gap);
      if (count == 0) continue;
      for (std::size_t i = 0, pos = ring.successor_pos(lo); i < count; ++i) {
        out.push_back(ring.at(pos));
        if (++pos == ring.size()) pos = 0;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), pivot), out.end());
  return out;
}

}  // namespace

DynamicCrescendo::DynamicCrescendo(IdSpace space,
                                   std::vector<OverlayNode> initial)
    : net_(std::make_unique<OverlayNetwork>(space, std::move(initial))),
      table_(build_crescendo(*net_)) {}

bool DynamicCrescendo::contains(NodeId id) const {
  return std::binary_search(net_->ids().begin(), net_->ids().end(), id);
}

int DynamicCrescendo::count_lookup_hops(const OverlayNode& node) const {
  // The joiner routes a query for its own ID through its bootstrap node;
  // greedy routing visits its predecessor at each level on the way. We
  // charge the full-route hop count on the pre-join structure.
  if (net_->size() == 0) return 0;
  // Bootstrap: the paper assumes a known node in the joiner's lowest-level
  // populated domain. Walk the joiner's path down to the deepest existing
  // domain and take its lowest-ID member: the lowest index among the nodes
  // of maximal LCA depth with the joiner.
  const DomainTree& tree = net_->domains();
  int d = tree.root();
  for (const std::uint16_t branch : node.domain.branches()) {
    const int child = tree.child(d, branch);
    if (child < 0) break;
    d = child;
  }
  const NodeIndex bootstrap = tree.domain(d).members.front();
  return RingRouter(*net_, table_).route(bootstrap, node.id).hops();
}

MaintenanceCost DynamicCrescendo::join(const OverlayNode& node) {
  // Rejected before the timer and the counter, which count changes.
  if (contains(node.id)) {
    throw std::invalid_argument("DynamicCrescendo::join: duplicate ID");
  }
  if (node.id != net_->space().wrap(node.id)) {
    throw std::invalid_argument(
        "DynamicCrescendo::join: ID outside the IdSpace");
  }
  telemetry::ScopedTimer timer("maintenance.join_ms");
  if (telemetry::Counter* c = telemetry::maybe_counter("maintenance.joins")) {
    c->inc();
  }
  auto next = std::make_unique<OverlayNetwork>(*net_, node);
  const NodeIndex pivot = next->index_of(node.id);

  MaintenanceCost cost;
  cost.lookup_hops = count_lookup_hops(node);
  std::vector<NodeIndex> dirty = affected_nodes(*next, pivot);
  cost.nodes_updated = static_cast<int>(dirty.size());
  dirty.insert(std::lower_bound(dirty.begin(), dirty.end(), pivot), pivot);
  commit(std::move(next), {pivot, true}, dirty);
  if (journal_) {
    journal_->join(node.id, node.domain.branches(), cost.lookup_hops,
                   net_->size());
    journal_->repair("join", node.id, cost.nodes_updated);
  }
  return cost;
}

MaintenanceCost DynamicCrescendo::leave(NodeId id) {
  const std::vector<NodeId>& ids = net_->ids();
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    throw std::invalid_argument("DynamicCrescendo::leave: unknown ID");
  }
  telemetry::ScopedTimer timer("maintenance.leave_ms");
  if (telemetry::Counter* c = telemetry::maybe_counter("maintenance.leaves")) {
    c->inc();
  }
  const IndexChange change{static_cast<NodeIndex>(it - ids.begin()), false};
  MaintenanceCost cost;
  // Affected set computed while the leaver is still present, then moved to
  // the next network's indices. It holds every node linking to the
  // leaver, so no clean row does.
  std::vector<NodeIndex> dirty = affected_nodes(*net_, change.at);
  cost.nodes_updated = static_cast<int>(dirty.size());
  for (NodeIndex& m : dirty) m = change.next(m);
  commit(std::make_unique<OverlayNetwork>(*net_, change.at), change, dirty);
  if (journal_) {
    journal_->leave(id, net_->size());
    journal_->repair("leave", id, cost.nodes_updated);
  }
  return cost;
}

void DynamicCrescendo::commit(std::unique_ptr<OverlayNetwork> next,
                              IndexChange change,
                              const std::vector<NodeIndex>& dirty) {
  LinkTable table = LinkTable::derive(
      table_, next->ids(), change, dirty,
      [&](NodeIndex m, LinkRow& row) { add_crescendo_links(*next, m, row); });
  net_ = std::move(next);
  table_ = std::move(table);
}

std::vector<NodeId> DynamicCrescendo::leaf_set(NodeId id, int level,
                                               int count) const {
  const NodeIndex node = net_->index_of(id);
  const int domain = net_->domains().domain_of(node, level);
  const RingView ring = net_->domain_ring(domain);
  std::vector<NodeId> out;
  const std::size_t pos =
      ring.successor_pos(net_->space().advance(id, 1));
  for (int i = 0; i < count && i < static_cast<int>(ring.size()) - 1; ++i) {
    out.push_back(net_->id(ring.at((pos + static_cast<std::size_t>(i)) %
                                   ring.size())));
  }
  return out;
}

}  // namespace canon
