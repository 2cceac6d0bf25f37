#include "overlay/overlay_network.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace canon {

/// ID-sorted, validated structure-of-arrays bundle.
struct OverlayNetwork::Soa {
  std::vector<NodeId> ids;
  DomainPathPool paths;
  std::vector<std::int32_t> attach;
};

/// Validates IDs against the space, then sorts the parallel arrays by ID
/// (one permutation applied to every array; no sort when the IDs already
/// ascend) and rejects duplicates. The
/// permutation is applied with gathers into fresh arrays: O(n) extra for
/// the array being permuted, never one allocation per node.
OverlayNetwork::Soa OverlayNetwork::sort_by_id(
    IdSpace space, std::vector<NodeId> ids, DomainPathPool paths,
    std::vector<std::int32_t> attach) {
  const std::size_t n = ids.size();
  if (paths.offsets.empty()) paths.offsets.push_back(0);
  if (paths.size() != n) {
    throw std::invalid_argument("OverlayNetwork: ids/paths size mismatch");
  }
  if (!attach.empty() && attach.size() != n) {
    throw std::invalid_argument("OverlayNetwork: ids/attach size mismatch");
  }
  for (const NodeId id : ids) {
    if (id != space.wrap(id)) {
      throw std::invalid_argument("OverlayNetwork: ID outside the IdSpace");
    }
  }
  // Already-ascending IDs keep the identity order, which is the order the
  // sort would produce.
  std::vector<NodeIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (!std::is_sorted(ids.begin(), ids.end())) {
    std::sort(order.begin(), order.end(),
              [&](NodeIndex a, NodeIndex b) { return ids[a] < ids[b]; });
  }

  Soa out;
  out.ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.ids[i] = ids[order[i]];
  for (std::size_t i = 1; i < n; ++i) {
    if (out.ids[i - 1] == out.ids[i]) {
      throw std::invalid_argument("OverlayNetwork: duplicate node IDs");
    }
  }
  ids.clear();
  ids.shrink_to_fit();

  out.paths.offsets.reserve(n + 1);
  out.paths.offsets.push_back(0);
  out.paths.branches.reserve(paths.branches.size());
  for (std::size_t i = 0; i < n; ++i) {
    const DomainPathView p = paths.view(order[i]);
    out.paths.branches.insert(out.paths.branches.end(), p.branches().begin(),
                              p.branches().end());
    out.paths.offsets.push_back(
        static_cast<std::uint32_t>(out.paths.branches.size()));
  }
  if (!attach.empty()) {
    out.attach.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.attach[i] = attach[order[i]];
  }
  return out;
}

// ---------------------------------------------------------------- RingView

std::size_t RingView::successor_pos(NodeId key) const {
  if (members_.empty()) throw std::logic_error("RingView: empty view");
  // First member with id >= key; wrap to position 0 if none.
  const std::size_t pos = lower_pos(key, 0, members_.size());
  return pos == members_.size() ? 0 : pos;
}

NodeIndex RingView::successor(NodeId key) const {
  return members_[successor_pos(key)];
}

NodeIndex RingView::predecessor_or_self(NodeId key) const {
  if (members_.empty()) throw std::logic_error("RingView: empty view");
  const std::size_t pos = successor_pos(key);
  // If the successor sits exactly on the key, it manages the key itself;
  // otherwise the manager is the member just before the successor.
  if (id_at(pos) == key) return members_[pos];
  return members_[(pos + members_.size() - 1) % members_.size()];
}

NodeIndex RingView::first_at_distance(NodeId from,
                                      std::uint64_t dist) const {
  if (members_.empty()) throw std::logic_error("RingView: empty view");
  if (dist > space_.mask()) return kNone;
  return successor(space_.advance(from, dist));
}

std::size_t RingView::count_in(NodeId lo, std::uint64_t len) const {
  if (members_.empty() || len == 0) return 0;
  if (space_.bits() < 64 && len >= (std::uint64_t{1} << space_.bits())) {
    return members_.size();
  }
  const NodeId hi = space_.advance(lo, len);  // exclusive end
  const std::size_t plo = lower_pos(lo, 0, members_.size());
  const std::size_t phi = lower_pos(hi, 0, members_.size());
  if (lo < hi) {
    // Non-wrapping interval [lo, hi).
    return phi - plo;
  }
  // Wrapping interval: [lo, 2^N) plus [0, hi). (lo == hi means the full
  // ring, which the same expression handles.)
  return (members_.size() - plo) + phi;
}

std::uint64_t RingView::successor_distance(NodeId from) const {
  if (members_.empty()) throw std::logic_error("RingView: empty view");
  const NodeIndex succ = successor(space_.advance(from, 1));
  const std::uint64_t d = space_.ring_distance(from, ids_[succ]);
  if (d == 0) {
    // The only member ahead is `from` itself: the view is a singleton
    // containing from. Treat the distance as unbounded.
    return std::numeric_limits<std::uint64_t>::max();
  }
  return d;
}

// ---------------------------------------------------------- OverlayNetwork

OverlayNetwork::OverlayNetwork(IdSpace space, std::vector<NodeId> ids,
                               DomainPathPool paths,
                               std::vector<std::int32_t> attach)
    : OverlayNetwork(space, sort_by_id(space, std::move(ids), std::move(paths),
                                       std::move(attach))) {}

OverlayNetwork::OverlayNetwork(IdSpace space, Soa soa)
    : space_(space),
      ids_(std::move(soa.ids)),
      paths_(std::move(soa.paths)),
      attach_(std::move(soa.attach)),
      tree_(paths_.offsets, paths_.branches, ids_) {
  charge_memory();
}

void OverlayNetwork::charge_memory() {
  mem_soa_.reset("overlay.soa", telemetry::vector_bytes(ids_) +
                                    telemetry::vector_bytes(attach_));
  mem_paths_.reset("hierarchy.path_pool", paths_.memory_bytes());
  mem_tree_.reset("hierarchy.domain_tree", tree_.memory_bytes());
}

namespace {

/// `paths` with `joiner`'s path spliced in as row `change.at`, or with row
/// `change.at` spliced out.
DomainPathPool splice_paths(const DomainPathPool& paths, IndexChange change,
                            const OverlayNode* joiner) {
  DomainPathPool out;
  std::span<const std::uint16_t> row;
  if (joiner != nullptr) row = joiner->domain.branches();
  splice_rows<std::uint16_t>(paths.offsets, paths.branches, change, row,
                             out.offsets, out.branches);
  return out;
}

/// `attach` across the change. An empty array means no node is attached,
/// and stays empty while that holds.
std::vector<std::int32_t> splice_attach(const std::vector<std::int32_t>& attach,
                                        std::size_t n, IndexChange change,
                                        const OverlayNode* joiner) {
  const std::int32_t joined = joiner != nullptr ? joiner->attach : -1;
  if (!attach.empty()) return splice(attach, change, joined);
  if (joined == -1) return {};
  return splice(std::vector<std::int32_t>(n, -1), change, joined);
}

/// The insert of ID `id` at its lower_bound in `prev`, validated as the
/// constructors validate IDs.
IndexChange join_change(const OverlayNetwork& prev, NodeId id) {
  if (id != prev.space().wrap(id)) {
    throw std::invalid_argument("OverlayNetwork: ID outside the IdSpace");
  }
  const std::vector<NodeId>& ids = prev.ids();
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) {
    throw std::invalid_argument("OverlayNetwork: duplicate node IDs");
  }
  return {static_cast<NodeIndex>(it - ids.begin()), true};
}

/// The erase of node `leaver` from `prev`, validated.
IndexChange leave_change(const OverlayNetwork& prev, NodeIndex leaver) {
  if (leaver >= prev.size()) {
    throw std::out_of_range("OverlayNetwork: leaver index out of range");
  }
  return {leaver, false};
}

}  // namespace

OverlayNetwork::OverlayNetwork(const OverlayNetwork& prev,
                               const OverlayNode& joiner)
    : OverlayNetwork(prev, join_change(prev, joiner.id), &joiner) {}

OverlayNetwork::OverlayNetwork(const OverlayNetwork& prev, NodeIndex leaver)
    : OverlayNetwork(prev, leave_change(prev, leaver), nullptr) {}

OverlayNetwork::OverlayNetwork(const OverlayNetwork& prev, IndexChange change,
                               const OverlayNode* joiner)
    : space_(prev.space_),
      ids_(splice(prev.ids_, change, joiner != nullptr ? joiner->id : 0)),
      paths_(splice_paths(prev.paths_, change, joiner)),
      attach_(splice_attach(prev.attach_, prev.size(), change, joiner)),
      tree_(prev.tree_, change, paths_.offsets, paths_.branches, ids_) {
  charge_memory();
}

OverlayNetwork::Soa OverlayNetwork::soa_from_nodes(
    const std::vector<OverlayNode>& nodes) {
  Soa soa;
  soa.ids.reserve(nodes.size());
  soa.paths.offsets.reserve(nodes.size() + 1);
  soa.attach.resize(nodes.size());
  std::size_t i = 0;
  for (const OverlayNode& n : nodes) {
    soa.ids.push_back(n.id);
    soa.paths.push_back(n.domain.view());
    soa.attach[i++] = n.attach;
  }
  if (soa.paths.offsets.empty()) soa.paths.offsets.push_back(0);
  return soa;
}

OverlayNetwork::OverlayNetwork(IdSpace space, std::vector<OverlayNode> nodes)
    : OverlayNetwork(space,
                     [&] {
                       Soa soa = soa_from_nodes(nodes);
                       return sort_by_id(space, std::move(soa.ids),
                                         std::move(soa.paths),
                                         std::move(soa.attach));
                     }()) {}

RingView OverlayNetwork::ring() const {
  return domain_ring(tree_.root());
}

RingView OverlayNetwork::domain_ring(int d) const {
  const auto& members = tree_.domain(d).members;
  return RingView(space_, ids_, {members.data(), members.size()});
}

NodeIndex OverlayNetwork::responsible(NodeId key) const {
  return ring().predecessor_or_self(key);
}

NodeIndex OverlayNetwork::xor_closest(NodeId key) const {
  if (ids_.empty()) throw std::logic_error("OverlayNetwork: empty");
  // Walk the bits of the key from the top, keeping the range of sorted IDs
  // that matches the best achievable prefix.
  std::size_t lo = 0;
  std::size_t hi = ids_.size();
  NodeId prefix = 0;
  for (int b = space_.bits() - 1; b >= 0; --b) {
    if (hi - lo == 1) break;
    const NodeId want = prefix | (key & (NodeId{1} << b));
    // Split [lo, hi) at the first ID whose bit b is 1 (IDs are sorted, and
    // all share `prefix` above bit b).
    const NodeId split = prefix | (NodeId{1} << b);
    const auto it = std::lower_bound(ids_.begin() + static_cast<long>(lo),
                                     ids_.begin() + static_cast<long>(hi),
                                     split);
    const std::size_t mid = static_cast<std::size_t>(it - ids_.begin());
    const bool want_one = (want >> b) & 1;
    const bool preferred_nonempty = want_one ? (mid < hi) : (lo < mid);
    // Descend into the preferred subtree when possible, otherwise into the
    // (necessarily non-empty) other one.
    const bool take_one = preferred_nonempty ? want_one : !want_one;
    if (take_one) {
      lo = mid;
      prefix = split;
    } else {
      hi = mid;
    }
  }
  return static_cast<NodeIndex>(lo);
}

NodeIndex OverlayNetwork::index_of(NodeId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) {
    throw std::invalid_argument("OverlayNetwork::index_of: unknown ID");
  }
  return static_cast<NodeIndex>(it - ids_.begin());
}

}  // namespace canon
