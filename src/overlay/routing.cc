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

void finish_route(const Route& r, NodeId key, const OverlayNetwork& net,
                  const LinkTable& links,
                  std::span<telemetry::Counter* const, 3> counters,
                  telemetry::RouteTraceSink* sink) {
  if (counters[0]) {
    counters[0]->inc();
    counters[1]->inc(static_cast<std::uint64_t>(r.hops()));
    if (!r.ok) counters[2]->inc();
  }
  if (!sink) return;
  const std::uint64_t trace_id = sink->begin_lookup(r.source(), key);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    telemetry::HopRecord hop;
    hop.lookup = trace_id;
    hop.from = r.path[i];
    hop.to = r.path[i + 1];
    hop.hop_index = static_cast<int>(i);
    hop.level = net.lca_level(r.path[i], r.path[i + 1]);
    hop.candidates =
        static_cast<std::uint32_t>(links.neighbors(r.path[i]).size());
    sink->on_hop(hop);
  }
  sink->end_lookup(trace_id, r.ok, r.terminal());
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

// ----------------------------------------------------------- lookahead

namespace {

/// Greedy-with-lookahead (Symphony §3.1), the ring-only variant of the
/// scalar walk: commits to the whole best 2-step plan, recording one or
/// two nodes per iteration.
template <typename Recorder>
RouteProbe lookahead_walk(const OverlayNetwork& net, const LinkTable& links,
                          int max_hops, NodeIndex from, NodeId key,
                          Recorder&& record) {
  const IdSpace& space = net.space();
  NodeIndex current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    const NodeId cur_id = net.id(current);
    const std::uint64_t remaining = space.ring_distance(cur_id, key);
    // Evaluate all 1-step and 2-step plans that never overshoot and commit
    // to the whole plan with the smallest final remaining distance.
    NodeIndex best_v = current;
    NodeIndex best_w = current;  // == best_v for 1-step plans
    std::uint64_t best_final = remaining;
    const auto neighbors = links.neighbors(current);
    const NodeId* nb_ids = links.neighbor_ids(current).data();
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const NodeIndex v = neighbors[j];
      const NodeId v_id = nb_ids[j];
      const std::uint64_t covered1 = space.ring_distance(cur_id, v_id);
      if (covered1 == 0 || covered1 > remaining) continue;
      const std::uint64_t after1 = remaining - covered1;
      if (after1 < best_final) {
        best_final = after1;
        best_v = v;
        best_w = v;
      }
      const auto second = links.neighbors(v);
      const NodeId* second_ids = links.neighbor_ids(v).data();
      for (std::size_t k = 0; k < second.size(); ++k) {
        const std::uint64_t covered2 =
            space.ring_distance(v_id, second_ids[k]);
        if (covered2 == 0 || covered2 > after1) continue;
        const std::uint64_t after2 = after1 - covered2;
        if (after2 < best_final) {
          best_final = after2;
          best_v = v;
          best_w = second[k];
        }
      }
    }
    if (best_v == current) {
      return {current, hops, current == net.responsible(key), false};
    }
    record(best_v);
    ++hops;
    if (best_w != best_v) {
      record(best_w);
      ++hops;
    }
    current = best_w;
  }
  return {current, hops, false, true};  // hop guard
}

}  // namespace

template <typename Kernel>
void GreedyRouter<Kernel>::route_lookahead_into(NodeIndex from, NodeId key,
                                                Route& out) const
  requires std::same_as<Kernel, RingKernel>
{
  out.path.clear();
  out.path.push_back(from);
  const RouteProbe p =
      lookahead_walk(kernel_.net(), kernel_.links(), kernel_.max_hops(), from,
                     key, detail::PathRecorder{&out.path});
  out.ok = p.ok;
  out.hop_guard = p.hop_guard;
}

template <typename Kernel>
RouteProbe GreedyRouter<Kernel>::probe_lookahead(NodeIndex from,
                                                 NodeId key) const
  requires std::same_as<Kernel, RingKernel>
{
  return lookahead_walk(kernel_.net(), kernel_.links(), kernel_.max_hops(),
                        from, key, detail::NullRecorder{});
}

template <typename Kernel>
Route GreedyRouter<Kernel>::route_lookahead(NodeIndex from, NodeId key) const
  requires std::same_as<Kernel, RingKernel>
{
  Route r;
  route_lookahead_into(from, key, r);
  finish(r, key);
  return r;
}

template class GreedyRouter<RingKernel>;
template class GreedyRouter<XorKernel>;

}  // namespace canon
