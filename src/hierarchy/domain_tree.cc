#include "hierarchy/domain_tree.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <type_traits>

namespace canon {

namespace {

/// Flattens owning paths into the (offsets, branches) pool shape used by
/// the structure-of-arrays constructor.
void flatten_paths(const std::vector<DomainPath>& paths,
                   std::vector<std::uint32_t>& offsets,
                   std::vector<std::uint16_t>& branches) {
  offsets.resize(paths.size() + 1);
  offsets[0] = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    total += static_cast<std::size_t>(paths[i].depth());
    offsets[i + 1] = static_cast<std::uint32_t>(total);
  }
  branches.reserve(total);
  for (const DomainPath& p : paths) {
    branches.insert(branches.end(), p.branches().begin(), p.branches().end());
  }
}

}  // namespace

DomainTree::DomainTree(const std::vector<DomainPath>& paths,
                       const std::vector<NodeId>& ids) {
  if (paths.size() != ids.size()) {
    throw std::invalid_argument("DomainTree: paths/ids size mismatch");
  }
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint16_t> branches;
  flatten_paths(paths, offsets, branches);
  build({offsets.data(), offsets.size()}, {branches.data(), branches.size()},
        ids);
}

DomainTree::DomainTree(std::span<const std::uint32_t> path_offsets,
                       std::span<const std::uint16_t> path_branches,
                       const std::vector<NodeId>& ids) {
  if (path_offsets.size() != ids.size() + 1) {
    throw std::invalid_argument("DomainTree: path_offsets/ids size mismatch");
  }
  build(path_offsets, path_branches, ids);
}

DomainTree::DomainTree(const DomainTree& prev, IndexChange change,
                       std::span<const std::uint32_t> path_offsets,
                       std::span<const std::uint16_t> path_branches,
                       const std::vector<NodeId>& ids) {
  const std::size_t n = change.next_size(prev.node_count());
  if (change.at >= (change.insert ? n : prev.node_count()) ||
      ids.size() != n || path_offsets.size() != n + 1) {
    throw std::invalid_argument("DomainTree: change does not fit the arrays");
  }
  // The changed node's chain, root first. It keeps every domain index
  // unless the node opens a domain (its path leaves the tree) or is the
  // last member of one.
  std::vector<std::int32_t> chain;
  bool same_domains = true;
  if (change.insert) {
    int d = prev.root();
    chain.push_back(d);
    for (std::uint32_t k = path_offsets[change.at];
         k < path_offsets[change.at + 1]; ++k) {
      d = prev.child(d, path_branches[k]);
      if (d < 0) {
        same_domains = false;
        break;
      }
      chain.push_back(d);
    }
  } else {
    const auto old = prev.domain_chain(change.at);
    chain.assign(old.begin(), old.end());
    for (const int d : chain) same_domains &= prev.domain(d).members.size() > 1;
  }
  if (!same_domains) {
    build(path_offsets, path_branches, ids);
    return;
  }

  domains_.resize(prev.domains_.size());
  for (std::size_t k = 0; k < domains_.size(); ++k) {
    const Domain& from = prev.domains_[k];
    Domain& to = domains_[k];
    to.parent = from.parent;
    to.depth = from.depth;
    to.branch = from.branch;
    to.children = from.children;
    // Members ascend by index (index order is ID order), so the changed
    // node sits at the lower bound of the pivot.
    const auto chain_pos = static_cast<std::size_t>(from.depth);
    const bool on_chain = chain_pos < chain.size() &&
                          chain[chain_pos] == static_cast<std::int32_t>(k);
    const auto split = std::lower_bound(from.members.begin(),
                                        from.members.end(), change.at);
    to.members.resize(on_chain ? change.next_size(from.members.size())
                               : from.members.size());
    auto out = std::copy(from.members.begin(), split, to.members.begin());
    if (on_chain && change.insert) *out++ = change.at;
    std::transform(split + (on_chain && !change.insert ? 1 : 0),
                   from.members.end(), out,
                   [change](NodeIndex v) { return change.next(v); });
  }
  splice_rows<std::int32_t>(prev.chain_offsets_, prev.chains_, change, chain,
                            chain_offsets_, chains_);
  max_depth_ = prev.max_depth_;
}

void DomainTree::build(std::span<const std::uint32_t> path_offsets,
                       std::span<const std::uint16_t> path_branches,
                       const std::vector<NodeId>& ids) {
  const std::size_t n = ids.size();
  const auto depth_of = [&](NodeIndex node) {
    return static_cast<int>(path_offsets[node + 1] - path_offsets[node]);
  };
  const auto branch_of = [&](NodeIndex node, int level) {
    return path_branches[path_offsets[node] + static_cast<std::uint32_t>(level)];
  };

  // Order node indices by ID once; every domain's member list is a
  // subsequence of this order and therefore also ID-sorted. Ascending IDs
  // (every OverlayNetwork's) already are that order.
  std::vector<NodeIndex> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (!std::is_sorted(ids.begin(), ids.end())) {
    std::sort(order.begin(), order.end(),
              [&](NodeIndex a, NodeIndex b) { return ids[a] < ids[b]; });
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (ids[order[i - 1]] == ids[order[i]]) {
      throw std::invalid_argument("DomainTree: duplicate node IDs");
    }
  }

  // Flat chain pool: node i owns depth(i) + 1 slots (root..leaf); the
  // worklist below fills slot `depth` of every member when the domain at
  // that depth is processed.
  chain_offsets_.resize(n + 1);
  chain_offsets_[0] = 0;
  std::size_t total_chain = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_chain += static_cast<std::size_t>(depth_of(
                       static_cast<NodeIndex>(i))) +
                   1;
    chain_offsets_[i + 1] = static_cast<std::uint32_t>(total_chain);
  }
  chains_.assign(total_chain, -1);

  domains_.push_back(Domain{});  // root
  domains_[0].members = order;

  // Recursively partition each domain's member list by the next path
  // component. Iterative worklist to avoid deep recursion. The partition
  // is a counting pass plus a placement pass: `slot[b]` first counts the
  // members taking branch b (recording each distinct branch once), then
  // holds b's child domain index. Children get consecutive indices in
  // ascending branch order and keep their members in ID order.
  const std::uint16_t max_branch =
      path_branches.empty()
          ? 0
          : *std::max_element(path_branches.begin(), path_branches.end());
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(max_branch) + 1, 0);
  std::vector<std::uint16_t> branches;  // distinct branches of one domain
  std::vector<int> work = {0};
  while (!work.empty()) {
    const int d = work.back();
    work.pop_back();
    const int depth = domains_[static_cast<std::size_t>(d)].depth;
    // Members whose path ends here stay attached to this domain as their
    // leaf.
    branches.clear();
    for (const NodeIndex node :
         domains_[static_cast<std::size_t>(d)].members) {
      chains_[chain_offsets_[node] + static_cast<std::uint32_t>(depth)] = d;
      if (depth_of(node) > depth && slot[branch_of(node, depth)]++ == 0) {
        branches.push_back(branch_of(node, depth));
      }
    }
    if (branches.empty()) continue;
    std::sort(branches.begin(), branches.end());
    const auto first = static_cast<std::uint32_t>(domains_.size());
    for (std::size_t k = 0; k < branches.size(); ++k) {
      const auto child_index = static_cast<int>(first + k);
      slot[branches[k]] = static_cast<std::uint32_t>(child_index);
      Domain child;
      child.parent = d;
      child.depth = depth + 1;
      child.branch = branches[k];
      domains_.push_back(std::move(child));
      domains_[static_cast<std::size_t>(d)].children.push_back(child_index);
    }
    for (const NodeIndex node :
         domains_[static_cast<std::size_t>(d)].members) {
      if (depth_of(node) > depth) {
        domains_[slot[branch_of(node, depth)]].members.push_back(node);
      }
    }
    for (std::size_t k = 0; k < branches.size(); ++k) {
      slot[branches[k]] = 0;
      work.push_back(static_cast<int>(first + k));
    }
    max_depth_ = std::max(max_depth_, depth + 1);
  }
}

int DomainTree::child(int d, std::uint16_t branch) const {
  // Children take consecutive indices in ascending branch order.
  const std::vector<int>& children = domain(d).children;
  const auto it = std::lower_bound(
      children.begin(), children.end(), branch,
      [this](int c, std::uint16_t b) { return domain(c).branch < b; });
  return it != children.end() && domain(*it).branch == branch ? *it : -1;
}

int DomainTree::domain_of(NodeIndex node, int level) const {
  const auto chain = domain_chain(node);
  if (level < 0 || level >= static_cast<int>(chain.size())) {
    throw std::out_of_range("DomainTree::domain_of: bad level");
  }
  return chain[static_cast<std::size_t>(level)];
}

std::uint64_t DomainTree::memory_bytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::uint64_t bytes =
      vec_bytes(domains_) + vec_bytes(chain_offsets_) + vec_bytes(chains_);
  for (const Domain& d : domains_) {
    bytes += vec_bytes(d.children) + vec_bytes(d.members);
  }
  return bytes;
}

}  // namespace canon
