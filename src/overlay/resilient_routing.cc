#include "overlay/resilient_routing.h"

#include <algorithm>
#include <stdexcept>

namespace canon {

namespace {

constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

bool is_banned(const std::vector<std::uint32_t>& banned, std::uint32_t node) {
  return std::find(banned.begin(), banned.end(), node) != banned.end();
}

struct NullRecorder {
  void operator()(std::uint32_t) const {}
};

struct PathRecorder {
  std::vector<std::uint32_t>* path;
  void operator()(std::uint32_t node) const { path->push_back(node); }
};

}  // namespace

ResilientRingRouter::ResilientRingRouter(const OverlayNetwork& net,
                                         const LinkTable& links, int leaf_set,
                                         int retry_budget)
    : net_(&net),
      links_(&links),
      leaf_set_(leaf_set),
      retry_budget_(retry_budget),
      max_hops_(4 * net.space().bits() + 16) {
  if (retry_budget < 1) {
    throw std::invalid_argument("ResilientRingRouter: retry budget < 1");
  }
}

std::uint32_t ResilientRingRouter::live_responsible(
    NodeId key, const FailureSet& dead) const {
  // Walk predecessors until a live one is found.
  const RingView ring = net_->ring();
  std::size_t pos = ring.successor_pos(key);
  // predecessor_or_self semantics: if the successor sits on the key it is
  // responsible, otherwise step back one.
  if (net_->id(ring.at(pos)) != key) {
    pos = (pos + ring.size() - 1) % ring.size();
  }
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const std::uint32_t candidate =
        ring.at((pos + ring.size() - i) % ring.size());
    if (!dead.dead(candidate)) return candidate;
  }
  throw std::logic_error("live_responsible: everyone is dead");
}

void ResilientRingRouter::live_candidates(
    std::uint32_t m, const FailureSet& dead,
    std::vector<std::uint32_t>& out) const {
  out.clear();
  // Leaf sets: the next `leaf_set_` successors at every level.
  const auto& chain = net_->domains().domain_chain(m);
  for (const int d : chain) {
    const RingView ring = net_->domain_ring(d);
    if (ring.size() < 2) continue;
    std::size_t pos =
        ring.successor_pos(net_->space().advance(net_->id(m), 1));
    for (int i = 0; i < leaf_set_; ++i) {
      const std::uint32_t s = ring.at(pos);
      if (s == m) break;  // wrapped all the way around
      if (!dead.dead(s)) out.push_back(s);
      pos = (pos + 1) % ring.size();
    }
  }
}

template <typename Recorder>
ResilientProbe ResilientRingRouter::core(std::uint32_t from, NodeId key,
                                         const FailureSet& dead,
                                         DropRoller& drops, Scratch& scratch,
                                         Recorder&& record) const {
  if (dead.dead(from)) {
    throw std::invalid_argument("ResilientRingRouter: source is dead");
  }
  const IdSpace& space = net_->space();
  // Fault-only bookkeeping (fallback tallies, banned filters) is gated so
  // the zero-fault scan is the plain ring_core scan, comparison for
  // comparison.
  const bool faults = dead.any() || drops.active();
  std::uint32_t current = from;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  for (int step = 0; step < max_hops_; ++step) {
    const NodeId cur_id = net_->id(current);
    const std::uint64_t remaining = space.ring_distance(cur_id, key);
    scratch.banned.clear();
    bool leaf_fresh = false;
    int attempts = retry_budget_;
    for (;;) {  // per-hop retry ladder
      // Stage 1: the plain greedy scan — most clockwise coverage without
      // overshooting — restricted to live, unbanned neighbors.
      std::size_t best_j = kNoCandidate;
      std::uint64_t best_covered = 0;
      std::uint64_t best_any = 0;  // incl. dead/banned: fallback tally
      const auto neighbors = links_->neighbors(current);
      const auto nb_ids = links_->neighbor_ids(current);
      for (std::size_t j = 0; j < neighbors.size(); ++j) {
        const NodeId nb_id = nb_ids[j];
        const std::uint64_t covered = space.ring_distance(cur_id, nb_id);
        if (covered > remaining) continue;
        if (faults && covered > best_any) best_any = covered;
        if (covered <= best_covered) continue;
        const std::uint32_t nb = neighbors[j];
        if (faults && (dead.dead(nb) || is_banned(scratch.banned, nb))) {
          continue;
        }
        best_covered = covered;
        best_j = j;
      }
      std::uint32_t best = best_j == kNoCandidate ? current : neighbors[best_j];
      // Stage 2: no live link makes progress — consult the leaf set.
      bool via_leaf = false;
      if (best == current && faults) {
        if (!leaf_fresh) {
          live_candidates(current, dead, scratch.leaf);
          leaf_fresh = true;
        }
        std::uint64_t best_leaf = 0;
        for (const std::uint32_t c : scratch.leaf) {
          if (is_banned(scratch.banned, c)) continue;
          const std::uint64_t covered =
              space.ring_distance(cur_id, net_->id(c));
          if (covered <= remaining && covered > best_leaf) {
            best_leaf = covered;
            best = c;
          }
        }
        via_leaf = best != current;
      }
      if (best == current) {
        const bool ok = current == (faults ? live_responsible(key, dead)
                                           : net_->responsible(key));
        return {current, hops, ok, retries, fallback_hops};
      }
      if (drops.drop()) {
        scratch.banned.push_back(best);
        ++retries;
        if (--attempts <= 0) {
          return {current, hops, false, retries, fallback_hops};  // lost
        }
        continue;
      }
      if (via_leaf || (faults && best_covered < best_any)) ++fallback_hops;
      current = best;
      ++hops;
      record(current);
      break;
    }
  }
  // Hop guard exceeded: structurally broken table.
  return {current, hops, false, retries, fallback_hops};
}

ResilientProbe ResilientRingRouter::route_into(std::uint32_t from, NodeId key,
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

ResilientProbe ResilientRingRouter::probe(std::uint32_t from, NodeId key,
                                          const FailureSet& dead,
                                          DropRoller& drops,
                                          Scratch& scratch) const {
  return core(from, key, dead, drops, scratch, NullRecorder{});
}

Route ResilientRingRouter::route(std::uint32_t from, NodeId key,
                                 const FailureSet& dead) const {
  Route r;
  Scratch scratch;
  DropRoller drops;
  route_into(from, key, dead, drops, scratch, r);
  return r;
}

ResilientXorRouter::ResilientXorRouter(const OverlayNetwork& net,
                                       const LinkTable& links,
                                       int retry_budget)
    : net_(&net),
      links_(&links),
      retry_budget_(retry_budget),
      max_hops_(4 * net.space().bits() + 16) {
  if (retry_budget < 1) {
    throw std::invalid_argument("ResilientXorRouter: retry budget < 1");
  }
}

std::uint32_t ResilientXorRouter::live_closest(NodeId key,
                                               const FailureSet& dead) const {
  const std::uint32_t structural = net_->xor_closest(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net_->space();
  std::uint32_t best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (std::uint32_t i = 0; i < net_->size(); ++i) {
    if (dead.dead(i)) continue;
    const std::uint64_t d = space.xor_distance(net_->id(i), key);
    if (best == RingView::kNone || d < best_d) {
      best = i;
      best_d = d;
    }
  }
  if (best == RingView::kNone) {
    throw std::logic_error("live_closest: everyone is dead");
  }
  return best;
}

template <typename Recorder>
ResilientProbe ResilientXorRouter::core(std::uint32_t from, NodeId key,
                                        const FailureSet& dead,
                                        DropRoller& drops, Scratch& scratch,
                                        Recorder&& record) const {
  if (dead.dead(from)) {
    throw std::invalid_argument("ResilientXorRouter: source is dead");
  }
  const IdSpace& space = net_->space();
  const bool faults = dead.any() || drops.active();
  std::uint32_t current = from;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  for (int step = 0; step < max_hops_; ++step) {
    const std::uint64_t remaining = space.xor_distance(net_->id(current), key);
    scratch.banned.clear();
    int attempts = retry_budget_;
    for (;;) {  // per-hop retry ladder over alpha candidates
      std::size_t best_j = kNoCandidate;
      std::uint64_t best_remaining = remaining;
      std::uint64_t best_any = remaining;  // incl. dead/banned
      const auto neighbors = links_->neighbors(current);
      const auto nb_ids = links_->neighbor_ids(current);
      for (std::size_t j = 0; j < neighbors.size(); ++j) {
        const NodeId nb_id = nb_ids[j];
        const std::uint64_t d = space.xor_distance(nb_id, key);
        if (faults && d < best_any) best_any = d;
        if (d >= best_remaining) continue;
        const std::uint32_t nb = neighbors[j];
        if (faults && (dead.dead(nb) || is_banned(scratch.banned, nb))) {
          continue;
        }
        best_remaining = d;
        best_j = j;
      }
      if (best_j == kNoCandidate) {
        const bool ok = current == (faults ? live_closest(key, dead)
                                           : net_->xor_closest(key));
        return {current, hops, ok, retries, fallback_hops};
      }
      const std::uint32_t best = neighbors[best_j];
      if (drops.drop()) {
        scratch.banned.push_back(best);
        ++retries;
        if (--attempts <= 0) {
          return {current, hops, false, retries, fallback_hops};  // lost
        }
        continue;
      }
      if (faults && best_remaining > best_any) ++fallback_hops;
      current = best;
      ++hops;
      record(current);
      break;
    }
  }
  return {current, hops, false, retries, fallback_hops};
}

ResilientProbe ResilientXorRouter::route_into(std::uint32_t from, NodeId key,
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

ResilientProbe ResilientXorRouter::probe(std::uint32_t from, NodeId key,
                                         const FailureSet& dead,
                                         DropRoller& drops,
                                         Scratch& scratch) const {
  return core(from, key, dead, drops, scratch, NullRecorder{});
}

}  // namespace canon
