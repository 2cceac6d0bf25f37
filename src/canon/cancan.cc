#include "canon/cancan.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"
#include "dht/kademlia.h"
#include "telemetry/scoped_timer.h"

namespace canon {

CanCanNetwork::CanCanNetwork(const OverlayNetwork& net)
    : net_(&net) {
  telemetry::ScopedTimer timer("build.cancan_ms");
  const DomainTree& dom = net.domains();
  trees_.resize(static_cast<std::size_t>(dom.domain_count()));
  // Per-domain zone tries are independent; one shard per few domains.
  parallel_for(static_cast<std::size_t>(dom.domain_count()), 4,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t d = begin; d < end; ++d) {
                   const auto& members =
                       dom.domain(static_cast<int>(d)).members;
                   trees_[d] = std::make_unique<ZoneTree>(
                       net, std::span<const std::uint32_t>{members.data(),
                                                           members.size()});
                 }
               });

  const auto add_node_links = [&](NodeIndex m, LinkRow& row) {
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    // Leaf domain: every CAN edge.
    for (const std::uint32_t v :
         tree(chain[static_cast<std::size_t>(leaf)]).neighbors(m)) {
      row.push_back(v);
    }
    // Higher levels: a face edge survives the merge only if it is shorter
    // than the shortest lower-level link *for that face* (the per-bucket
    // reading of condition (b), as in Kandy). On the virtual hypercube a
    // face at prefix position `pos` spans 2^(N-1-pos); the lower zone
    // covers exactly the faces at positions < len(lower zone), so deeper
    // faces are always kept, and a shallower face survives only when the
    // lower domain has no member at all across it (its ID bucket is empty).
    const int bits = net.space().bits();
    for (int level = leaf - 1; level >= 0; --level) {
      const RingView child_ring =
          net.domain_ring(chain[static_cast<std::size_t>(level + 1)]);
      const int lower_len =
          tree(chain[static_cast<std::size_t>(level + 1)]).zone(m).len;
      const ZoneTree& t = tree(chain[static_cast<std::size_t>(level)]);
      const int len = t.zone(m).len;
      for (int pos = 0; pos < len; ++pos) {
        // Keep only if the child domain is empty across this face.
        if (pos < lower_len &&
            bucket_count(net, child_ring, net.id(m), bits - 1 - pos) != 0) {
          continue;
        }
        t.face_neighbors(m, pos, row);
      }
    }
  };
  links_ = LinkTable::build(net.ids(), add_node_links);
}

std::uint32_t CanCanNetwork::responsible(NodeId key) const {
  return tree(net_->domains().root()).owner_of(key);
}

CanCanRouter::CanCanRouter(const CanCanNetwork& network)
    : network_(&network),
      max_hops_(8 * network.net().space().bits() + 16) {}

Route CanCanRouter::route(std::uint32_t from, NodeId key) const {
  const OverlayNetwork& net = network_->net();
  const IdSpace& space = net.space();
  const DomainTree& dom = net.domains();
  Route r;
  r.path.push_back(from);
  std::uint32_t current = from;
  // Stage = the domain whose partition the message is currently finishing,
  // starting at the source's leaf domain and lifting toward the root.
  int stage_domain = dom.domain_chain(from).back();
  // The XOR fallback can decrease the prefix match, so guard against
  // revisiting a node (which would mean a routing cycle).
  std::unordered_set<std::uint32_t> visited = {from};

  for (int step = 0; step < max_hops_; ++step) {
    const ZoneTree& t = network_->tree(stage_domain);
    if (t.owner_of(key) == current) {
      if (dom.domain(stage_domain).parent < 0) {
        r.ok = true;  // finished the root partition
        return r;
      }
      stage_domain = dom.domain(stage_domain).parent;
      continue;  // lift the stage without consuming a hop
    }
    const int cur_match = t.match_len(current, key);
    std::uint32_t best = current;
    int best_match = cur_match;
    for (const std::uint32_t nb : network_->links().neighbors(current)) {
      if (!t.contains(nb) || visited.contains(nb)) continue;
      const int m = t.match_len(nb, key);
      if (m > best_match) {
        best_match = m;
        best = nb;
      }
    }
    if (best == current) {
      // The key's stage zone may be a short empty-sibling block: accept a
      // neighbor that owns the key outright.
      for (const std::uint32_t nb : network_->links().neighbors(current)) {
        if (t.contains(nb) && !visited.contains(nb) &&
            t.owner_of(key) == nb) {
          best = nb;
          break;
        }
      }
    }
    if (best == current) {
      // Fallback for faces the merge filter removed: any stage-domain
      // neighbor strictly closer to the key in XOR distance.
      const std::uint64_t cur_d = space.xor_distance(net.id(current), key);
      std::uint64_t best_d = cur_d;
      for (const std::uint32_t nb : network_->links().neighbors(current)) {
        if (!t.contains(nb) || visited.contains(nb)) continue;
        const std::uint64_t d = space.xor_distance(net.id(nb), key);
        if (d < best_d) {
          best_d = d;
          best = nb;
        }
      }
      if (best != current) fallback_.fetch_add(1, std::memory_order_relaxed);
    }
    if (best == current) {
      stuck_.fetch_add(1, std::memory_order_relaxed);
      r.ok = false;
      return r;
    }
    current = best;
    visited.insert(current);
    r.path.push_back(current);
  }
  r.ok = false;
  return r;
}

namespace {

bool in_list(const std::vector<std::uint32_t>& list, std::uint32_t node) {
  return std::find(list.begin(), list.end(), node) != list.end();
}

struct NullRecorder {
  void operator()(std::uint32_t) const {}
};

struct PathRecorder {
  std::vector<std::uint32_t>* path;
  void operator()(std::uint32_t node) const { path->push_back(node); }
};

}  // namespace

ResilientCanCanRouter::ResilientCanCanRouter(const CanCanNetwork& network,
                                             int retry_budget)
    : network_(&network),
      retry_budget_(retry_budget),
      max_hops_(8 * network.net().space().bits() + 16) {
  if (retry_budget < 1) {
    throw std::invalid_argument("ResilientCanCanRouter: retry budget < 1");
  }
}

std::uint32_t ResilientCanCanRouter::live_stage_owner(
    const ZoneTree& t, int d, NodeId key, const FailureSet& dead) const {
  const std::uint32_t structural = t.owner_of(key);
  if (!dead.dead(structural)) return structural;
  const OverlayNetwork& net = network_->net();
  const IdSpace& space = net.space();
  std::uint32_t best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (const std::uint32_t m : net.domains().domain(d).members) {
    if (dead.dead(m) || !t.contains(m)) continue;
    const std::uint64_t dist = space.xor_distance(net.id(m), key);
    if (best == RingView::kNone || dist < best_d) {
      best = m;
      best_d = dist;
    }
  }
  if (best == RingView::kNone) {
    throw std::logic_error("live_stage_owner: stage domain has no live node");
  }
  return best;
}

template <typename Recorder>
ResilientProbe ResilientCanCanRouter::core(std::uint32_t from, NodeId key,
                                           const FailureSet& dead,
                                           DropRoller& drops, Scratch& scratch,
                                           Recorder&& record) const {
  if (dead.dead(from)) {
    throw std::invalid_argument("ResilientCanCanRouter: source is dead");
  }
  const OverlayNetwork& net = network_->net();
  const IdSpace& space = net.space();
  const DomainTree& dom = net.domains();
  const bool faults = dead.any() || drops.active();
  std::uint32_t current = from;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  int stage_domain = dom.domain_chain(from).back();
  const ZoneTree* t = &network_->tree(stage_domain);
  // The target of the current stage; under faults a dead owner's zone is
  // taken over by the live stage member XOR-closest to the key.
  std::uint32_t stage_target =
      faults ? live_stage_owner(*t, stage_domain, key, dead) : t->owner_of(key);
  scratch.visited.clear();
  scratch.visited.push_back(from);

  for (int step = 0; step < max_hops_; ++step) {
    if (stage_target == current) {
      if (dom.domain(stage_domain).parent < 0) {
        return {current, hops, true, retries, fallback_hops};  // root done
      }
      stage_domain = dom.domain(stage_domain).parent;
      t = &network_->tree(stage_domain);
      stage_target = faults ? live_stage_owner(*t, stage_domain, key, dead)
                            : t->owner_of(key);
      continue;  // lift the stage without consuming a hop
    }
    const int cur_match = t->match_len(current, key);
    scratch.banned.clear();
    int attempts = retry_budget_;
    for (;;) {  // per-hop retry ladder
      std::uint32_t best = current;
      int best_match = cur_match;
      for (const std::uint32_t nb : network_->links().neighbors(current)) {
        if (!t->contains(nb) || in_list(scratch.visited, nb)) continue;
        if (faults && (dead.dead(nb) || in_list(scratch.banned, nb))) {
          continue;
        }
        const int m = t->match_len(nb, key);
        if (m > best_match) {
          best_match = m;
          best = nb;
        }
      }
      if (best == current) {
        // The key's stage zone may be a short empty-sibling block: accept
        // a neighbor that is the stage target outright.
        for (const std::uint32_t nb : network_->links().neighbors(current)) {
          if (!t->contains(nb) || in_list(scratch.visited, nb) ||
              nb != stage_target) {
            continue;
          }
          if (faults && in_list(scratch.banned, nb)) continue;
          best = nb;
          break;
        }
      }
      bool via_fallback = false;
      if (best == current) {
        // Fallback for faces the merge filter removed (and, under faults,
        // for dead ones): any stage-domain neighbor strictly closer to the
        // key in XOR distance.
        std::uint64_t best_d = space.xor_distance(net.id(current), key);
        for (const std::uint32_t nb : network_->links().neighbors(current)) {
          if (!t->contains(nb) || in_list(scratch.visited, nb)) continue;
          if (faults && (dead.dead(nb) || in_list(scratch.banned, nb))) {
            continue;
          }
          const std::uint64_t d = space.xor_distance(net.id(nb), key);
          if (d < best_d) {
            best_d = d;
            best = nb;
          }
        }
        via_fallback = best != current;
      }
      if (best == current) {
        return {current, hops, false, retries, fallback_hops};  // stuck
      }
      if (drops.drop()) {
        scratch.banned.push_back(best);
        ++retries;
        if (--attempts <= 0) {
          return {current, hops, false, retries, fallback_hops};  // lost
        }
        continue;
      }
      if (via_fallback) ++fallback_hops;
      current = best;
      ++hops;
      record(current);
      scratch.visited.push_back(current);
      break;
    }
  }
  return {current, hops, false, retries, fallback_hops};
}

ResilientProbe ResilientCanCanRouter::route_into(std::uint32_t from,
                                                 NodeId key,
                                                 const FailureSet& dead,
                                                 DropRoller& drops,
                                                 Scratch& scratch,
                                                 Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  out.ok = false;
  const ResilientProbe p =
      core(from, key, dead, drops, scratch, PathRecorder{&out.path});
  out.ok = p.ok;
  return p;
}

ResilientProbe ResilientCanCanRouter::probe(std::uint32_t from, NodeId key,
                                            const FailureSet& dead,
                                            DropRoller& drops,
                                            Scratch& scratch) const {
  return core(from, key, dead, drops, scratch, NullRecorder{});
}

}  // namespace canon
