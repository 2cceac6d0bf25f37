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
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(ring.select_in(lo, gap, i));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), pivot), out.end());
  return out;
}

/// `net` with `joiner` inserted at index `at` (its lower_bound, so the IDs
/// stay ascending), or with node `at` erased when `joiner` is null. Throws,
/// as any OverlayNetwork does, on an ID outside the space.
std::unique_ptr<OverlayNetwork> next_network(const OverlayNetwork& net,
                                             NodeIndex at,
                                             const OverlayNode* joiner) {
  const std::size_t n = net.size();
  const std::size_t next_n = joiner != nullptr ? n + 1 : n - 1;
  std::vector<NodeId> ids;
  ids.reserve(next_n);
  DomainPathPool paths;
  paths.offsets.reserve(next_n + 1);
  paths.offsets.push_back(0);
  std::vector<std::int32_t> attach;
  attach.reserve(next_n);
  const auto append = [&](NodeId id, DomainPathView path, std::int32_t a) {
    ids.push_back(id);
    paths.push_back(path);
    attach.push_back(a);
  };
  for (NodeIndex i = 0; i <= n; ++i) {
    if (i == at) {
      if (joiner == nullptr) continue;
      append(joiner->id, joiner->domain.view(), joiner->attach);
    }
    if (i < n) append(net.id(i), net.path(i), net.attach(i));
  }
  return std::make_unique<OverlayNetwork>(net.space(), std::move(ids),
                                          std::move(paths), std::move(attach));
}

/// The table over `next` after one change at `pivot` (the joiner's index
/// in `next`, or the leaver's index in the network `old` was built on).
/// Rows in `dirty` (indices into `next`) are recomputed; every other row is
/// old's row for the same node, its indices shifted by one past the pivot.
LinkTable next_table(const OverlayNetwork& next, const LinkTable& old,
                     const std::vector<NodeIndex>& dirty, NodeIndex pivot,
                     bool joined) {
  std::vector<char> recompute(next.size(), 0);
  for (const NodeIndex m : dirty) recompute[m] = 1;
  return LinkTable::build(next.ids(), [&](NodeIndex m, LinkRow& row) {
    if (recompute[m]) {
      add_crescendo_links(next, m, row);
      return;
    }
    if (joined) {
      for (const NodeIndex v : old.neighbors(m > pivot ? m - 1 : m)) {
        row.push_back(v >= pivot ? v + 1 : v);
      }
    } else {
      // A clean row never links to the leaver: every node that does is
      // affected.
      for (const NodeIndex v : old.neighbors(m >= pivot ? m + 1 : m)) {
        row.push_back(v > pivot ? v - 1 : v);
      }
    }
  });
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
  for (int level = 0; level < node.domain.depth(); ++level) {
    const std::vector<int>& children = tree.domain(d).children;
    const auto child = std::find_if(
        children.begin(), children.end(), [&](int c) {
          return tree.domain(c).branch == node.domain.branch(level);
        });
    if (child == children.end()) break;
    d = *child;
  }
  const NodeIndex bootstrap = tree.domain(d).members.front();
  return RingRouter(*net_, table_).route(bootstrap, node.id).hops();
}

MaintenanceCost DynamicCrescendo::join(const OverlayNode& node) {
  if (contains(node.id)) {
    throw std::invalid_argument("DynamicCrescendo::join: duplicate ID");
  }
  telemetry::ScopedTimer timer("maintenance.join_ms");
  if (telemetry::Counter* c = telemetry::maybe_counter("maintenance.joins")) {
    c->inc();
  }
  const std::vector<NodeId>& ids = net_->ids();
  const auto pivot = static_cast<NodeIndex>(
      std::lower_bound(ids.begin(), ids.end(), node.id) - ids.begin());
  std::unique_ptr<OverlayNetwork> next = next_network(*net_, pivot, &node);

  MaintenanceCost cost;
  cost.lookup_hops = count_lookup_hops(node);
  std::vector<NodeIndex> dirty = affected_nodes(*next, pivot);
  cost.nodes_updated = static_cast<int>(dirty.size());
  dirty.push_back(pivot);
  LinkTable table = next_table(*next, table_, dirty, pivot, true);

  net_ = std::move(next);
  table_ = std::move(table);
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
  const auto pivot = static_cast<NodeIndex>(it - ids.begin());
  MaintenanceCost cost;
  // Affected set computed while the leaver is still present, then moved to
  // the next network's indices.
  std::vector<NodeIndex> dirty = affected_nodes(*net_, pivot);
  cost.nodes_updated = static_cast<int>(dirty.size());
  for (NodeIndex& m : dirty) m = m > pivot ? m - 1 : m;
  std::unique_ptr<OverlayNetwork> next = next_network(*net_, pivot, nullptr);
  LinkTable table = next_table(*next, table_, dirty, pivot, false);

  net_ = std::move(next);
  table_ = std::move(table);
  if (journal_) {
    journal_->leave(id, net_->size());
    journal_->repair("leave", id, cost.nodes_updated);
  }
  return cost;
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
