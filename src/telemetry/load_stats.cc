#include "telemetry/load_stats.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace canon::telemetry {

double gini_coefficient(std::span<const std::uint64_t> loads) {
  if (loads.empty()) return 0;
  std::vector<std::uint64_t> sorted(loads.begin(), loads.end());
  std::sort(sorted.begin(), sorted.end());
  // G = (2 * sum_i i*x_i) / (n * sum_i x_i) - (n + 1) / n  over the
  // ascending sort with 1-based ranks.
  double weighted = 0;
  double total = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double x = static_cast<double>(sorted[i]);
    weighted += static_cast<double>(i + 1) * x;
    total += x;
  }
  if (total == 0) return 0;
  const double n = static_cast<double>(sorted.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> top_loaded_nodes(
    std::span<const std::uint64_t> loads, std::size_t k) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> all;
  all.reserve(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    all.emplace_back(static_cast<std::uint32_t>(i), loads[i]);
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  all.resize(take);
  return all;
}

LoadAccountant::LoadAccountant(const DomainTree& tree,
                               std::span<const std::uint64_t> ids)
    : tree_(&tree),
      ids_(ids.begin(), ids.end()),
      slot_(tree.node_count(), kNoSlot),
      load_(tree.node_count(), 0),
      source_(tree.node_count(), 0),
      relay_(tree.node_count(), 0),
      terminal_(tree.node_count(), 0) {
  if (!ids_.empty() && ids_.size() != tree.node_count()) {
    throw std::invalid_argument("LoadAccountant: ids/population mismatch");
  }
  // Dense slots for the level-L domains, in DomainTree index order (the
  // tree assigns indices deterministically, so slot order is stable).
  std::vector<std::uint32_t> domain_slot(
      static_cast<std::size_t>(tree.domain_count()), kNoSlot);
  for (int d = 0; d < tree.domain_count(); ++d) {
    if (tree.domain(d).depth != kDomainLevel) continue;
    domain_slot[static_cast<std::size_t>(d)] =
        static_cast<std::uint32_t>(slot_domain_.size());
    slot_domain_.push_back(d);
  }
  for (std::uint32_t v = 0; v < tree.node_count(); ++v) {
    const std::span<const std::int32_t> chain = tree.domain_chain(v);
    if (static_cast<int>(chain.size()) > kDomainLevel) {
      slot_[v] =
          domain_slot[static_cast<std::size_t>(
              chain[static_cast<std::size_t>(kDomainLevel)])];
    }
  }
  domain_hops_.assign(slot_domain_.size(), 0);
}

int LoadAccountant::lca_level(std::uint32_t a, std::uint32_t b) const {
  const std::span<const std::int32_t> ca = tree_->domain_chain(a);
  const std::span<const std::int32_t> cb = tree_->domain_chain(b);
  const std::size_t limit = std::min(ca.size(), cb.size());
  std::size_t common = 0;
  while (common < limit && ca[common] == cb[common]) ++common;
  return static_cast<int>(common) - 1;  // chain[0] is the root (level 0)
}

void LoadAccountant::observe(std::span<const std::uint32_t> path, bool ok,
                             std::uint64_t key, Shard& shard) const {
  if (path.empty()) return;
  ++shard.queries;
  if (ok) ++shard.ok;
  shard.keys.push_back(key);
  shard.total_hops += path.size() - 1;

  if (path.size() == 1) {
    // The source already owned the key: one message handled, in both the
    // source and terminal roles.
    shard.touches.push_back((static_cast<std::uint64_t>(path[0]) << 3) |
                            kSourceBit | kTerminalBit);
  } else {
    shard.touches.push_back((static_cast<std::uint64_t>(path.front()) << 3) |
                            kSourceBit);
    for (std::size_t j = 1; j + 1 < path.size(); ++j) {
      shard.touches.push_back((static_cast<std::uint64_t>(path[j]) << 3) |
                              kRelayBit);
    }
    shard.touches.push_back((static_cast<std::uint64_t>(path.back()) << 3) |
                            kTerminalBit);
  }

  const std::uint32_t source_slot = slot_[path.front()];
  bool confined = source_slot != kNoSlot;
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    const int level = lca_level(path[j], path[j + 1]);
    if (level >= 0) {
      if (static_cast<std::size_t>(level) >= shard.hops_by_level.size()) {
        shard.hops_by_level.resize(static_cast<std::size_t>(level) + 1, 0);
      }
      ++shard.hops_by_level[static_cast<std::size_t>(level)];
    }
    const std::uint32_t fs = slot_[path[j]];
    const std::uint32_t ts = slot_[path[j + 1]];
    if (fs != kNoSlot && fs == ts) {
      if (shard.domain_hops.size() < domain_hops_.size()) {
        shard.domain_hops.resize(domain_hops_.size(), 0);
      }
      ++shard.domain_hops[fs];
    }
    if (ts != source_slot) confined = false;
  }
  // Confinement is only meaningful for OK lookups whose endpoints share a
  // level-L domain: did the whole path stay inside it?
  if (ok && source_slot != kNoSlot && slot_[path.back()] == source_slot) {
    ++shard.intra_queries;
    if (confined) ++shard.confined_queries;
  }
}

void LoadAccountant::merge(const Shard& shard) {
  for (const std::uint64_t touch : shard.touches) {
    const std::uint32_t node = static_cast<std::uint32_t>(touch >> 3);
    ++load_[node];
    if (touch & kSourceBit) ++source_[node];
    if (touch & kRelayBit) ++relay_[node];
    if (touch & kTerminalBit) ++terminal_[node];
  }
  for (const std::uint64_t key : shard.keys) ++key_counts_[key];
  if (shard.hops_by_level.size() > hops_by_level_.size()) {
    hops_by_level_.resize(shard.hops_by_level.size(), 0);
  }
  for (std::size_t l = 0; l < shard.hops_by_level.size(); ++l) {
    hops_by_level_[l] += shard.hops_by_level[l];
  }
  for (std::size_t s = 0; s < shard.domain_hops.size(); ++s) {
    domain_hops_[s] += shard.domain_hops[s];
  }
  queries_ += shard.queries;
  ok_ += shard.ok;
  total_hops_ += shard.total_hops;
  intra_queries_ += shard.intra_queries;
  confined_queries_ += shard.confined_queries;
}

double LoadAccountant::mean_load() const {
  if (load_.empty()) return 0;
  // sum(load) == total_hops + queries by construction: one message handled
  // per path appearance.
  return static_cast<double>(total_hops_ + queries_) /
         static_cast<double>(load_.size());
}

std::uint64_t LoadAccountant::max_load() const {
  std::uint64_t best = 0;
  for (const std::uint64_t l : load_) best = std::max(best, l);
  return best;
}

double LoadAccountant::max_mean_ratio() const {
  const double mean = mean_load();
  return mean > 0 ? static_cast<double>(max_load()) / mean : 0;
}

std::vector<NodeLoad> LoadAccountant::top_nodes(std::size_t k) const {
  const auto top = top_loaded_nodes(load_, k);
  std::vector<NodeLoad> out;
  out.reserve(top.size());
  for (const auto& [node, total] : top) {
    NodeLoad nl;
    nl.node = node;
    nl.id = node < ids_.size() ? ids_[node] : 0;
    nl.total = total;
    nl.as_source = source_[node];
    nl.as_relay = relay_[node];
    nl.as_terminal = terminal_[node];
    out.push_back(nl);
  }
  return out;
}

std::vector<KeyLoad> LoadAccountant::top_keys(std::size_t k) const {
  std::vector<KeyLoad> all;
  all.reserve(key_counts_.size());
  for (const auto& [key, count] : key_counts_) {
    all.push_back(KeyLoad{key, count});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const KeyLoad& a, const KeyLoad& b) {
                      if (a.lookups != b.lookups) return a.lookups > b.lookups;
                      return a.key < b.key;
                    });
  all.resize(take);
  return all;
}

std::vector<DomainLoad> LoadAccountant::domain_loads() const {
  std::vector<DomainLoad> out;
  out.reserve(slot_domain_.size());
  for (std::size_t s = 0; s < slot_domain_.size(); ++s) {
    DomainLoad dl;
    dl.domain = slot_domain_[s];
    dl.members = tree_->domain(dl.domain).members.size();
    dl.hops_inside = domain_hops_[s];
    dl.share = total_hops_ > 0 ? static_cast<double>(dl.hops_inside) /
                                     static_cast<double>(total_hops_)
                               : 0;
    // Dotted branch path root->domain, e.g. "3" at level 1, "3.2" at 2.
    std::vector<std::uint16_t> branches;
    for (int d = dl.domain; tree_->domain(d).parent >= 0;
         d = tree_->domain(d).parent) {
      branches.push_back(tree_->domain(d).branch);
    }
    for (auto it = branches.rbegin(); it != branches.rend(); ++it) {
      if (!dl.label.empty()) dl.label += '.';
      dl.label += std::to_string(*it);
    }
    out.push_back(std::move(dl));
  }
  return out;
}

double LoadAccountant::confinement_ratio() const {
  return intra_queries_ == 0
             ? 1.0
             : static_cast<double>(confined_queries_) /
                   static_cast<double>(intra_queries_);
}

JsonValue LoadAccountant::to_json(std::size_t top_k) const {
  JsonValue o = JsonValue::object();
  o.set("queries", JsonValue(queries_));
  o.set("ok", JsonValue(ok_));
  o.set("total_hops", JsonValue(total_hops_));
  o.set("domain_level", JsonValue(static_cast<std::int64_t>(kDomainLevel)));

  JsonValue dist = JsonValue::object();
  dist.set("mean", JsonValue(mean_load()));
  dist.set("max", JsonValue(max_load()));
  dist.set("max_mean", JsonValue(max_mean_ratio()));
  dist.set("gini", JsonValue(gini()));
  o.set("load", std::move(dist));

  JsonValue nodes = JsonValue::array();
  for (const NodeLoad& nl : top_nodes(top_k)) {
    JsonValue row = JsonValue::object();
    row.set("node", JsonValue(static_cast<std::uint64_t>(nl.node)));
    row.set("id", JsonValue(nl.id));
    row.set("total", JsonValue(nl.total));
    row.set("as_source", JsonValue(nl.as_source));
    row.set("as_relay", JsonValue(nl.as_relay));
    row.set("as_terminal", JsonValue(nl.as_terminal));
    nodes.push_back(std::move(row));
  }
  o.set("top_nodes", std::move(nodes));

  JsonValue keys = JsonValue::array();
  for (const KeyLoad& kl : top_keys(top_k)) {
    JsonValue row = JsonValue::object();
    row.set("key", JsonValue(kl.key));
    row.set("lookups", JsonValue(kl.lookups));
    keys.push_back(std::move(row));
  }
  o.set("top_keys", std::move(keys));

  JsonValue levels = JsonValue::array();
  for (const std::uint64_t h : hops_by_level_) levels.push_back(JsonValue(h));
  o.set("hops_by_level", std::move(levels));

  JsonValue domains = JsonValue::array();
  for (const DomainLoad& dl : domain_loads()) {
    JsonValue row = JsonValue::object();
    row.set("label", JsonValue(dl.label));
    row.set("members", JsonValue(static_cast<std::uint64_t>(dl.members)));
    row.set("hops_inside", JsonValue(dl.hops_inside));
    row.set("share", JsonValue(dl.share));
    domains.push_back(std::move(row));
  }
  o.set("domains", std::move(domains));

  JsonValue conf = JsonValue::object();
  conf.set("intra_queries", JsonValue(intra_queries_));
  conf.set("confined", JsonValue(confined_queries_));
  conf.set("ratio", JsonValue(confinement_ratio()));
  o.set("confinement", std::move(conf));
  return o;
}

}  // namespace canon::telemetry
