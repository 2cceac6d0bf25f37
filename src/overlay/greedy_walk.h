// The scalar walk and GreedyRouter's member definitions.
//
// One walk serves every scalar routing mode of every kernel:
//
// * a recorder policy — PathRecorder appends each node entered to a
//   Route (route / route_into), NullRecorder records nothing (probe);
// * one hop-guard exit (RouteProbe::hop_guard);
// * a fault policy — NoFaults compiles every fault branch away; Faults
//   (a FailureSet, a DropRoller and scratch) makes the same walk the
//   failure-aware router: the pick skips dead and banned candidates, a
//   dropped forward bans the winner and re-ranks until the per-hop retry
//   budget runs out, the kernel's second tier answers when nothing live
//   makes progress, and kernels aim at their live targets.
//
// A hop is a fallback hop iff it does not go to the candidate the kernel
// ranks first at that node with nothing skipped, so a fault-free walk
// counts none by construction.
//
// Internal header: included by the source files that instantiate
// GreedyRouter<Kernel> (overlay/routing.cc, canon/proximity.cc,
// dht/can.cc, canon/cancan.cc), after their kernel's rank() definition.
#ifndef CANON_OVERLAY_GREEDY_WALK_H
#define CANON_OVERLAY_GREEDY_WALK_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "overlay/batch_probe.h"
#include "overlay/fault_plan.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon {

/// The failure-aware walk's context: dead nodes and this hop's banned
/// candidates are skipped; kernels read `dead` for their live targets and
/// the ring kernel fills `scratch.leaf` with its leaf set.
struct Faults {
  static constexpr bool kActive = true;
  const FailureSet& dead;
  DropRoller& drops;
  FaultScratch& scratch;

  bool skip(NodeIndex node) const {
    return dead.dead(node) ||
           std::find(scratch.banned.begin(), scratch.banned.end(), node) !=
               scratch.banned.end();
  }
};

namespace detail {

/// Row position of `node` at `site` (rows are sorted ascending), or
/// kNoPick when `node` is not a neighbor.
inline std::size_t row_index(const HopSite& site, NodeIndex node) {
  const NodeIndex* end = site.targets + site.count;
  const NodeIndex* it = std::lower_bound(site.targets, end, node);
  return it != end && *it == node ? static_cast<std::size_t>(it - site.targets)
                                  : kNoPick;
}

struct NullRecorder {
  void operator()(NodeIndex) const {}
};

struct PathRecorder {
  std::vector<NodeIndex>* path;
  void operator()(NodeIndex node) const { path->push_back(node); }
};

/// The scalar walk; see the file comment.
template <typename Kernel, typename Ctx, typename Recorder>
ResilientProbe walk(const Kernel& kernel, NodeIndex from, NodeId key,
                    const Ctx& ctx, Recorder&& record) {
  const int max_hops = kernel.max_hops();
  NodeIndex current = from;
  NodeId cur_id = kernel.net().id(from);
  std::uint64_t state = 0;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  while (hops < max_hops) {
    const HopSite site = hop_site(kernel.links(), current, cur_id);
    if constexpr (Ctx::kActive) ctx.scratch.banned.clear();
    for (int attempts = kRetryBudget;;) {
      std::uint64_t next_state = state;
      BestPick<typename Kernel::Score, Ctx> pick(site, ctx);
      const Hop hop = kernel.rank(site, key, next_state, pick, ctx);
      if (hop != Hop::kForward) {
        return {current, hops, hop == Hop::kArrived, retries, fallback_hops,
                false};
      }
      if constexpr (Ctx::kActive) {
        if (ctx.drops.drop()) {
          ctx.scratch.banned.push_back(pick.node());
          ++retries;
          if (--attempts <= 0) {  // lost
            return {current, hops, false, retries, fallback_hops, false};
          }
          continue;
        }
        if (pick.fallback()) ++fallback_hops;
      }
      current = pick.node();
      cur_id = pick.id();
      state = next_state;
      ++hops;
      record(current);
      break;
    }
  }
  return {current, hops, false, retries, fallback_hops, true};  // hop guard
}

/// The failure-aware entry: the plain walk when nothing is dead and no
/// message drops, else the walk under Faults.
template <typename Kernel, typename Recorder>
ResilientProbe fault_walk(const Kernel& kernel, NodeIndex from, NodeId key,
                          const FailureSet& dead, DropRoller& drops,
                          FaultScratch& scratch, Recorder&& record) {
  if (dead.dead(from)) {
    throw std::invalid_argument("GreedyRouter: source is dead");
  }
  if (!dead.any() && !drops.active()) {
    return walk(kernel, from, key, NoFaults{}, record);
  }
  return walk(kernel, from, key, Faults{dead, drops, scratch}, record);
}

/// Registers <prefix>.{routes,hops,failures} in the installed registry.
void resolve_router_counters(const char* prefix,
                             std::span<telemetry::Counter*, 3> out);

}  // namespace detail

template <typename Kernel>
void GreedyRouter<Kernel>::route_into(NodeIndex from, NodeId key,
                                      Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  const ResilientProbe p = detail::walk(kernel_, from, key, NoFaults{},
                                        detail::PathRecorder{&out.path});
  out.ok = p.ok;
  out.hop_guard = p.hop_guard;
}

template <typename Kernel>
RouteProbe GreedyRouter<Kernel>::probe(NodeIndex from, NodeId key) const {
  return detail::walk(kernel_, from, key, NoFaults{}, detail::NullRecorder{})
      .to_probe();
}

template <typename Kernel>
void GreedyRouter<Kernel>::probe_batch(std::span<const Query> queries,
                                       std::span<RouteProbe> out) const {
  if (queries.size() != out.size()) {
    throw std::invalid_argument("probe_batch: out.size() != queries.size()");
  }
  const int width = probe_batch_width();
  if (width <= 0) {  // the scalar reference loop
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = probe(queries[i].from, queries[i].key);
    }
    return;
  }
  detail::interleaved_probe_batch(queries, out, width, kernel_);
}

template <typename Kernel>
Route GreedyRouter<Kernel>::route(NodeIndex from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  finish(r);
  return r;
}

template <typename Kernel>
ResilientProbe GreedyRouter<Kernel>::route_into(NodeIndex from, NodeId key,
                                                const FailureSet& dead,
                                                DropRoller& drops,
                                                Scratch& scratch,
                                                Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  const ResilientProbe p =
      detail::fault_walk(kernel_, from, key, dead, drops, scratch,
                         detail::PathRecorder{&out.path});
  out.ok = p.ok;
  out.hop_guard = p.hop_guard;
  return p;
}

template <typename Kernel>
ResilientProbe GreedyRouter<Kernel>::probe(NodeIndex from, NodeId key,
                                           const FailureSet& dead,
                                           DropRoller& drops,
                                           Scratch& scratch) const {
  return detail::fault_walk(kernel_, from, key, dead, drops, scratch,
                            detail::NullRecorder{});
}

template <typename Kernel>
Route GreedyRouter<Kernel>::route(NodeIndex from, NodeId key,
                                  const FailureSet& dead) const {
  Route r;
  Scratch scratch;
  DropRoller drops;
  route_into(from, key, dead, drops, scratch, r);
  return r;
}

template <typename Kernel>
Stepper GreedyRouter<Kernel>::stepper() const {
  return kernel_stepper(kernel_);
}

/// route()'s telemetry epilogue: bumps the kernel's counters.
template <typename Kernel>
void GreedyRouter<Kernel>::finish(const Route& r) const {
  if constexpr (Kernel::kCounterPrefix != nullptr) {
    if (counters_[0] == nullptr && telemetry::registry() != nullptr) {
      detail::resolve_router_counters(Kernel::kCounterPrefix, counters_);
    }
    if (counters_[0] != nullptr) {
      counters_[0]->inc();
      counters_[1]->inc(static_cast<std::uint64_t>(r.hops()));
      if (!r.ok) counters_[2]->inc();
    }
  }
}

}  // namespace canon

#endif  // CANON_OVERLAY_GREEDY_WALK_H
