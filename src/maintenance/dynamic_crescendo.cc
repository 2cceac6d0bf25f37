#include "maintenance/dynamic_crescendo.h"

#include <algorithm>
#include <stdexcept>

#include "canon/crescendo.h"
#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/scoped_timer.h"

namespace canon {

DynamicCrescendo::DynamicCrescendo(IdSpace space,
                                   std::vector<OverlayNode> initial)
    : space_(space), members_(std::move(initial)) {
  rebuild_network();
  if (net_->size() > 0) {
    std::vector<NodeId> all;
    all.reserve(net_->size());
    for (std::uint32_t i = 0; i < net_->size(); ++i) all.push_back(net_->id(i));
    recompute_links(all);
  }
}

void DynamicCrescendo::rebuild_network() {
  net_ = std::make_unique<OverlayNetwork>(space_, members_);
}

LinkTable DynamicCrescendo::link_table() const {
  // links_ iterates in ID order, which is node-index order.
  std::vector<const std::vector<NodeId>*> rows;
  rows.reserve(links_.size());
  for (const auto& entry : links_) rows.push_back(&entry.second);
  return LinkTable::build(net_->ids(), [&](NodeIndex m, LinkRow& row) {
    for (const NodeId nb : *rows[m]) row.push_back(net_->index_of(nb));
  });
}

std::vector<NodeId> DynamicCrescendo::affected_ids(std::uint32_t pivot) const {
  // Nodes whose links can involve `pivot`:
  //  * per level ring R of pivot's chain, per finger distance 2^k: members
  //    x with x.id + 2^k in (pred(pivot), pivot] now/then have pivot as the
  //    closest node at distance >= 2^k;
  //  * the predecessor of pivot in each ring (its merge limit depends on
  //    its successor distance, which pivot changes).
  std::vector<NodeId> out;
  const NodeId pid = net_->id(pivot);
  const auto& chain = net_->domains().domain_chain(pivot);
  for (const int d : chain) {
    const RingView ring = net_->domain_ring(d);
    if (ring.size() < 2) continue;
    // Predecessor of pivot in this ring.
    const std::uint32_t pred =
        ring.predecessor_or_self(space_.advance(pid, space_.mask()));
    out.push_back(net_->id(pred));
    const std::uint64_t gap = space_.ring_distance(net_->id(pred), pid);
    for (int k = 0; k < space_.bits(); ++k) {
      const std::uint64_t dist = std::uint64_t{1} << k;
      // x with x.id in (pid - 2^k - gap, pid - 2^k] (wrapping): for these,
      // x.id + 2^k lands in (pred, pivot].
      const NodeId lo = space_.advance(pid, space_.mask() + 1 - dist - gap +
                                                1);  // pid - dist - gap + 1
      const std::size_t count = ring.count_in(lo, gap);
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(net_->id(ring.select_in(lo, gap, i)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), pid), out.end());
  return out;
}

void DynamicCrescendo::recompute_links(const std::vector<NodeId>& ids) {
  // Compute fresh links for the given nodes on the current network, in
  // table form (index order is ID order).
  LinkRow row;
  for (const NodeId id : ids) {
    const NodeIndex m = net_->index_of(id);
    row.clear();
    add_crescendo_links(*net_, m, row);
    sanitize_row(m, net_->size(), row);
    std::vector<NodeId>& neighbors = links_[id];
    neighbors.clear();
    for (const NodeIndex v : row) neighbors.push_back(net_->id(v));
  }
}

int DynamicCrescendo::count_lookup_hops(const OverlayNode& node) const {
  // The joiner routes a query for its own ID through its bootstrap node;
  // greedy routing visits its predecessor at each level on the way. We
  // charge the full-route hop count on the pre-join structure.
  if (net_->size() == 0) return 0;
  const LinkTable table = link_table();
  const RingRouter router(*net_, table);
  // Bootstrap: the paper assumes a known node in the joiner's lowest-level
  // populated domain; use the domain-closest existing node.
  std::uint32_t bootstrap = 0;
  int best_lca = -1;
  for (std::uint32_t i = 0; i < net_->size(); ++i) {
    const int lca = net_->node(i).domain.lca_depth(node.domain);
    if (lca > best_lca) {
      best_lca = lca;
      bootstrap = i;
    }
  }
  return router.route(bootstrap, node.id).hops();
}

MaintenanceCost DynamicCrescendo::join(const OverlayNode& node) {
  if (links_.contains(node.id)) {
    throw std::invalid_argument("DynamicCrescendo::join: duplicate ID");
  }
  telemetry::ScopedTimer timer("maintenance.join_ms");
  if (telemetry::Counter* c = telemetry::maybe_counter("maintenance.joins")) {
    c->inc();
  }
  MaintenanceCost cost;
  cost.lookup_hops = count_lookup_hops(node);

  members_.push_back(node);
  rebuild_network();  // throws (and must restore) on duplicates
  const std::uint32_t pivot = net_->index_of(node.id);

  std::vector<NodeId> dirty = affected_ids(pivot);
  cost.nodes_updated = static_cast<int>(dirty.size());
  dirty.push_back(node.id);
  recompute_links(dirty);
  if (journal_) {
    journal_->join(node.id, node.domain.branches(), cost.lookup_hops,
                   members_.size());
    journal_->repair("join", node.id, cost.nodes_updated);
  }
  return cost;
}

MaintenanceCost DynamicCrescendo::leave(NodeId id) {
  const auto it =
      std::find_if(members_.begin(), members_.end(),
                   [&](const OverlayNode& n) { return n.id == id; });
  if (it == members_.end()) {
    throw std::invalid_argument("DynamicCrescendo::leave: unknown ID");
  }
  telemetry::ScopedTimer timer("maintenance.leave_ms");
  if (telemetry::Counter* c = telemetry::maybe_counter("maintenance.leaves")) {
    c->inc();
  }
  MaintenanceCost cost;
  // Affected set computed while the leaver is still present.
  const std::vector<NodeId> dirty = affected_ids(net_->index_of(id));
  cost.nodes_updated = static_cast<int>(dirty.size());

  members_.erase(it);
  links_.erase(id);
  rebuild_network();
  recompute_links(dirty);
  if (journal_) {
    journal_->leave(id, members_.size());
    journal_->repair("leave", id, cost.nodes_updated);
  }
  return cost;
}

std::vector<NodeId> DynamicCrescendo::leaf_set(NodeId id, int level,
                                               int count) const {
  const std::uint32_t node = net_->index_of(id);
  const int domain = net_->domains().domain_of(node, level);
  const RingView ring = net_->domain_ring(domain);
  std::vector<NodeId> out;
  const std::size_t pos = ring.successor_pos(space_.advance(id, 1));
  for (int i = 0; i < count && i < static_cast<int>(ring.size()) - 1; ++i) {
    out.push_back(net_->id(ring.at((pos + static_cast<std::size_t>(i)) %
                                   ring.size())));
  }
  return out;
}

}  // namespace canon
