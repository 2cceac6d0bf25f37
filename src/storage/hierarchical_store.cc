#include "storage/hierarchical_store.h"

#include <algorithm>
#include <stdexcept>

namespace canon {

HierarchicalStore::HierarchicalStore(const OverlayNetwork& net,
                                     const LinkTable& links,
                                     std::size_t cache_capacity,
                                     CachePolicy policy)
    : net_(&net),
      links_(&links),
      router_(net, links),
      entries_(net.size()),
      pointers_(net.size()),
      caching_(cache_capacity > 0) {
  caches_.reserve(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    caches_.emplace_back(cache_capacity, policy);
  }
}

std::uint32_t HierarchicalStore::responsible_in(int domain, NodeId key) const {
  return net_->domain_ring(domain).predecessor_or_self(key);
}

bool HierarchicalStore::visible(int access_domain, int access_depth,
                                std::uint32_t origin) const {
  // The origin may see the entry iff it lies inside the access domain.
  const auto& chain = net_->domains().domain_chain(origin);
  return access_depth < static_cast<int>(chain.size()) &&
         chain[static_cast<std::size_t>(access_depth)] == access_domain;
}

std::uint32_t HierarchicalStore::put(std::uint32_t origin, NodeId key,
                                     std::string value, int storage_level,
                                     int access_level, int replication) {
  if (access_level > storage_level || access_level < 0) {
    throw std::invalid_argument(
        "put: the access domain must contain the storage domain");
  }
  if (replication < 1) throw std::invalid_argument("put: replication < 1");
  const auto& chain = net_->domains().domain_chain(origin);
  if (storage_level >= static_cast<int>(chain.size())) {
    throw std::invalid_argument("put: storage level deeper than origin");
  }
  const int ds = chain[static_cast<std::size_t>(storage_level)];
  const int da = chain[static_cast<std::size_t>(access_level)];
  const std::uint32_t holder = responsible_in(ds, key);
  // Replica set: the holder plus its replication-1 predecessors on the
  // storage domain ring (the nodes that become responsible if it fails).
  const RingView ring = net_->domain_ring(ds);
  std::uint32_t at = holder;
  for (int r = 0; r < replication; ++r) {
    entries_[at].push_back(Entry{key, value, ds, da, access_level});
    if (ring.size() < 2) break;
    const NodeId before =
        net_->space().advance(net_->id(at), net_->space().mask());
    at = ring.predecessor_or_self(before);
    if (at == holder) break;  // wrapped: domain smaller than replication
  }
  if (access_level < storage_level) {
    const std::uint32_t proxy = responsible_in(da, key);
    if (proxy != holder) {
      pointers_[proxy].push_back(Pointer{key, holder, da, access_level});
    }
  }
  return holder;
}

bool HierarchicalStore::erase(std::uint32_t origin, NodeId key,
                              int storage_level, int access_level) {
  const auto& chain = net_->domains().domain_chain(origin);
  if (storage_level >= static_cast<int>(chain.size()) || access_level < 0 ||
      access_level > storage_level) {
    return false;
  }
  const int ds = chain[static_cast<std::size_t>(storage_level)];
  const int da = chain[static_cast<std::size_t>(access_level)];
  const std::uint32_t holder = responsible_in(ds, key);
  bool removed = false;
  // Remove from every node of the storage domain holding a replica.
  for (const std::uint32_t m : net_->domains()
           .domain(ds)
           .members) {
    auto& list = entries_[m];
    const auto before = list.size();
    std::erase_if(list, [&](const Entry& e) {
      return e.key == key && e.storage_domain == ds && e.access_domain == da;
    });
    removed |= (list.size() != before);
  }
  (void)holder;
  const std::uint32_t proxy = responsible_in(da, key);
  std::erase_if(pointers_[proxy], [&](const Pointer& p) {
    return p.key == key && p.access_domain == da;
  });
  return removed;
}

bool HierarchicalStore::inspect(std::uint32_t m, NodeId key,
                                std::uint32_t origin, bool use_cache,
                                GetResult& result) {
  // 1. Cached answer?
  if (use_cache && caching_) {
    if (const auto hit = caches_[m].get(key)) {
      result.source = AnswerSource::kCache;
      result.value = hit->value;
      result.served_by = m;
      return true;
    }
  }
  // 2. Local content, subject to access control.
  for (const Entry& e : entries_[m]) {
    if (e.key == key && visible(e.access_domain, e.access_depth, origin)) {
      result.source = AnswerSource::kOwner;
      result.value = e.value;
      result.served_by = m;
      return true;
    }
  }
  // 3. A pointer to content stored deeper in its storage domain.
  for (const Pointer& p : pointers_[m]) {
    if (p.key != key || !visible(p.access_domain, p.access_depth, origin)) {
      continue;
    }
    // Resolve the indirection: fetch from the holder (and back).
    for (const Entry& e : entries_[p.holder]) {
      if (e.key == key) {
        result.source = AnswerSource::kPointer;
        result.value = e.value;
        result.served_by = p.holder;
        result.extra_pointer_hops = 2;
        return true;
      }
    }
  }
  return false;
}

GetResult HierarchicalStore::get(std::uint32_t origin, NodeId key) {
  GetResult result;
  result.route.path.push_back(origin);

  // Walk the greedy route hop by hop, inspecting local state at each node.
  const Route full = router_.route(origin, key);
  for (std::size_t i = 0; i < full.path.size(); ++i) {
    const std::uint32_t m = full.path[i];
    if (i > 0) result.route.path.push_back(m);
    if (inspect(m, key, origin, /*use_cache=*/true, result)) break;
  }

  if (result.source != AnswerSource::kNotFound && caching_) {
    // Cache the answer at the proxy node of every origin-side domain the
    // path passed through, annotated with the level it serves.
    const auto& chain = net_->domains().domain_chain(origin);
    for (std::size_t depth = 1; depth < chain.size(); ++depth) {
      const std::uint32_t proxy =
          responsible_in(chain[depth], key);
      // Only proxies the query actually visited hold a copy.
      const auto on_path =
          std::find(result.route.path.begin(), result.route.path.end(), proxy);
      if (on_path != result.route.path.end()) {
        caches_[proxy].put(key, result.value, static_cast<int>(depth));
      }
    }
  }
  result.route.ok = result.source != AnswerSource::kNotFound;
  return result;
}

HierarchicalStore::MultiGetResult HierarchicalStore::get_many(
    std::uint32_t origin, NodeId key, std::size_t limit) {
  MultiGetResult result;
  // Distinct values only (a pointer and its target may both be seen).
  const auto add_value = [&](const std::string& v) {
    if (result.values.size() < limit &&
        std::find(result.values.begin(), result.values.end(), v) ==
            result.values.end()) {
      result.values.push_back(v);
    }
  };
  const Route full = router_.route(origin, key);
  for (std::size_t i = 0;
       i < full.path.size() && result.values.size() < limit; ++i) {
    const std::uint32_t m = full.path[i];
    result.route.path.push_back(m);
    // Every visible local value counts; pointers resolve to their holder's
    // values.
    for (const Entry& e : entries_[m]) {
      if (e.key == key && visible(e.access_domain, e.access_depth, origin)) {
        add_value(e.value);
      }
    }
    for (const Pointer& p : pointers_[m]) {
      if (p.key != key || !visible(p.access_domain, p.access_depth, origin)) {
        continue;
      }
      for (const Entry& e : entries_[p.holder]) {
        if (e.key == key) add_value(e.value);
      }
    }
  }
  result.route.ok = !result.values.empty();
  return result;
}

GetResult HierarchicalStore::get_resilient(std::uint32_t origin, NodeId key,
                                            const FailureSet& failures,
                                            int leaf_set) {
  const RingRouter router(*net_, *links_, leaf_set);
  GetResult result;
  result.route.path.push_back(origin);
  const Route full = router.route(origin, key, failures);
  for (std::size_t i = 0; i < full.path.size(); ++i) {
    const std::uint32_t m = full.path[i];
    if (i > 0) result.route.path.push_back(m);
    // Caches are not consulted under failures (a dead holder cannot have
    // populated one for this query anyway, and stale copies of erased
    // content would be indistinguishable from live answers).
    if (inspect(m, key, origin, /*use_cache=*/false, result)) {
      // A pointer to a dead holder is unresolvable; keep walking.
      if (result.source == AnswerSource::kPointer &&
          failures.dead(result.served_by)) {
        result = GetResult{};
        result.route.path.assign(full.path.begin(),
                                 full.path.begin() + static_cast<long>(i) + 1);
        continue;
      }
      break;
    }
  }
  result.route.ok = result.source != AnswerSource::kNotFound;
  return result;
}

std::size_t HierarchicalStore::stored_pairs() const {
  std::size_t total = 0;
  for (const auto& list : entries_) total += list.size();
  return total;
}

std::size_t HierarchicalStore::pointer_entries() const {
  std::size_t total = 0;
  for (const auto& list : pointers_) total += list.size();
  return total;
}

}  // namespace canon
