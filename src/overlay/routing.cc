#include "overlay/routing.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "overlay/greedy_walk.h"

namespace canon {

namespace {

// Process-wide batch window (see routing.h). Relaxed atomics: the knob is
// set once at startup (bench flag parsing) or between batches in tests —
// never mid-batch — so ordering carries no data.
std::atomic<int> g_probe_batch_width{kDefaultProbeBatchWidth};

void check_size(const OverlayNetwork& net, const LinkTable& links,
                const char* who) {
  if (links.node_count() != net.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": link table size mismatch");
  }
}

}  // namespace

int probe_batch_width() {
  return g_probe_batch_width.load(std::memory_order_relaxed);
}

void set_probe_batch_width(int width) {
  g_probe_batch_width.store(std::clamp(width, 0, kMaxProbeBatchWidth),
                            std::memory_order_relaxed);
}

namespace detail {

void resolve_router_counters(const char* prefix,
                             std::span<telemetry::Counter*, 3> out) {
  const std::string p(prefix);
  out[0] = telemetry::maybe_counter(p + ".routes");
  out[1] = telemetry::maybe_counter(p + ".hops");
  out[2] = telemetry::maybe_counter(p + ".failures");
}

}  // namespace detail

// ---------------------------------------------------------------- ring

RingKernel::RingKernel(const OverlayNetwork& net, const LinkTable& links,
                       int leaf_set)
    : net_(&net), links_(&links), mask_(net.space().mask()),
      leaf_set_(leaf_set), max_hops_(hop_guard(net)) {
  check_size(net, links, "RingRouter");
}

template <typename Pick, typename Ctx>
Hop RingKernel::rank(const HopSite& site, NodeId key, std::uint64_t&,
                     Pick& pick, const Ctx& ctx) const {
  // Most clockwise coverage without overshooting the key. The scan reads
  // only the row's inline NodeIds; an overshooter scores 0 and never wins.
  const std::uint64_t remaining = (key - site.id) & mask_;
  for (std::size_t j = 0; j < site.count; ++j) {
    const std::uint64_t covered = (site.ids[j] - site.id) & mask_;
    pick.offer(covered <= remaining ? covered : 0, j);
  }
  if constexpr (Ctx::kActive) {
    if (!pick.found()) {  // second tier: the live leaf set
      std::vector<NodeIndex>& leaf = ctx.scratch.leaf;
      std::vector<NodeId>& leaf_ids = ctx.scratch.leaf_ids;
      live_candidates(site.at, ctx.dead, leaf);
      leaf_ids.clear();
      for (const NodeIndex c : leaf) leaf_ids.push_back(net_->id(c));
      pick.tier(leaf.data(), leaf_ids.data(), /*plain=*/false);
      for (std::size_t j = 0; j < leaf.size(); ++j) {
        const std::uint64_t covered = (leaf_ids[j] - site.id) & mask_;
        pick.offer(covered <= remaining ? covered : 0, j);
      }
    }
  }
  if (pick.found()) return Hop::kForward;
  NodeIndex target;
  if constexpr (Ctx::kActive) {
    target = live_responsible(key, ctx.dead);
  } else {
    target = net_->responsible(key);
  }
  return site.at == target ? Hop::kArrived : Hop::kStuck;
}

NodeIndex RingKernel::live_responsible(NodeId key,
                                       const FailureSet& dead) const {
  // Walk predecessors until a live one is found.
  const RingView ring = net_->ring();
  std::size_t pos = ring.successor_pos(key);
  // predecessor_or_self semantics: if the successor sits on the key it is
  // responsible, otherwise step back one.
  if (net_->id(ring.at(pos)) != key) {
    pos = (pos + ring.size() - 1) % ring.size();
  }
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeIndex candidate = ring.at((pos + ring.size() - i) % ring.size());
    if (!dead.dead(candidate)) return candidate;
  }
  throw std::logic_error("live_responsible: everyone is dead");
}

void RingKernel::live_candidates(NodeIndex m, const FailureSet& dead,
                                 std::vector<NodeIndex>& out) const {
  out.clear();
  // Leaf sets: the next `leaf_set_` successors at every level.
  for (const int d : net_->domains().domain_chain(m)) {
    const RingView ring = net_->domain_ring(d);
    if (ring.size() < 2) continue;
    std::size_t pos =
        ring.successor_pos(net_->space().advance(net_->id(m), 1));
    for (int i = 0; i < leaf_set_; ++i) {
      const NodeIndex s = ring.at(pos);
      if (s == m) break;  // wrapped all the way around
      if (!dead.dead(s)) out.push_back(s);
      pos = (pos + 1) % ring.size();
    }
  }
}

// ----------------------------------------------------------- lookahead

LookaheadKernel::LookaheadKernel(const OverlayNetwork& net,
                                 const LinkTable& links)
    : ring_(net, links), mask_(net.space().mask()) {}

template <typename Pick, typename Ctx>
Hop LookaheadKernel::rank(const HopSite& site, NodeId key,
                          std::uint64_t& state, Pick& pick,
                          const Ctx& ctx) const {
  if (state == 0) {
    // Plan two hops: neighbor v scores how far the best pair through it
    // gets, i.e. what u -> v covers plus the most v's greedy hop covers.
    const std::uint64_t remaining = (key - site.id) & mask_;
    for (std::size_t j = 0; j < site.count; ++j) {
      const std::uint64_t covered = (site.ids[j] - site.id) & mask_;
      if (covered == 0 || covered > remaining) continue;
      const std::uint64_t left = remaining - covered;
      const HopSite v = hop_site(ring_.links(), site.targets[j], site.ids[j]);
      std::uint64_t next = 0;
      for (std::size_t k = 0; k < v.count; ++k) {
        const std::uint64_t c = (v.ids[k] - v.id) & mask_;
        if (c > next && c <= left) {
          if constexpr (Ctx::kActive) {
            if (ctx.dead.dead(v.targets[k])) continue;
          }
          next = c;
        }
      }
      pick.offer(covered + next, j);
    }
    if (pick.found()) {
      state = 1;
      return Hop::kForward;
    }
  }
  // The committed second step, or the end of the lookup.
  state = 0;
  return ring_.rank(site, key, state, pick, ctx);
}

// ----------------------------------------------------------------- xor

XorKernel::XorKernel(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net), links_(&links), mask_(net.space().mask()),
      max_hops_(hop_guard(net)) {
  check_size(net, links, "XorRouter");
}

template <typename Pick, typename Ctx>
Hop XorKernel::rank(const HopSite& site, NodeId key, std::uint64_t&,
                    Pick& pick, const Ctx& ctx) const {
  // Strict XOR-distance reduction: the score ~d ranks closer higher, and
  // the floor admits only neighbors closer than this node.
  const std::uint64_t remaining = (site.id ^ key) & mask_;
  pick.floor(~remaining);
  for (std::size_t j = 0; j < site.count; ++j) {
    pick.offer(~((site.ids[j] ^ key) & mask_), j);
  }
  if (pick.found()) return Hop::kForward;
  NodeIndex target;
  if constexpr (Ctx::kActive) {
    target = live_closest(key, ctx.dead);
  } else {
    target = net_->xor_closest(key);
  }
  return site.at == target ? Hop::kArrived : Hop::kStuck;
}

NodeIndex XorKernel::live_closest(NodeId key, const FailureSet& dead) const {
  const NodeIndex structural = net_->xor_closest(key);
  if (!dead.dead(structural)) return structural;
  const IdSpace& space = net_->space();
  NodeIndex best = RingView::kNone;
  std::uint64_t best_d = 0;
  for (NodeIndex i = 0; i < net_->size(); ++i) {
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

template class GreedyRouter<RingKernel>;
template class GreedyRouter<LookaheadKernel>;
template class GreedyRouter<XorKernel>;

}  // namespace canon
