#include "canon/proximity.h"

#include "telemetry/scoped_timer.h"

#include <algorithm>
#include <stdexcept>

#include "common/prefetch.h"
#include "dht/chord.h"
#include "overlay/batch_probe.h"

namespace canon {

GroupedOverlay::GroupedOverlay(const OverlayNetwork& net,
                               int target_group_size)
    : net_(&net) {
  if (target_group_size < 1) {
    throw std::invalid_argument("GroupedOverlay: bad target group size");
  }
  const int bits = net.space().bits();
  const std::size_t n = net.size();
  if (n == 0) throw std::invalid_argument("GroupedOverlay: empty network");
  prefix_bits_ = std::min(
      bits, ceil_log2(std::max<std::uint64_t>(
                1, n / static_cast<std::size_t>(target_group_size))));
  shift_ = bits - prefix_bits_;

  // Nodes are ID-sorted, so groups are contiguous runs of equal gid.
  group_index_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId g = net.id(i) >> shift_;
    if (groups_.empty() || groups_.back().gid != g) {
      groups_.push_back(Group{g, {}});
    }
    groups_.back().members.push_back(i);
    group_index_[i] = static_cast<int>(groups_.size()) - 1;
  }
}

NodeId GroupedOverlay::gid_of_node(std::uint32_t node) const {
  return net_->id(node) >> shift_;
}

int GroupedOverlay::group_index_of(std::uint32_t node) const {
  return group_index_[node];
}

int GroupedOverlay::group_successor(NodeId g) const {
  const auto it = std::lower_bound(
      groups_.begin(), groups_.end(), g,
      [](const Group& grp, NodeId key) { return grp.gid < key; });
  if (it == groups_.end()) return 0;
  return static_cast<int>(it - groups_.begin());
}

int GroupedOverlay::responsible_group(NodeId key) const {
  const NodeId g = gid_of_key(key);
  const int succ = group_successor(g);
  if (groups_[static_cast<std::size_t>(succ)].gid == g) return succ;
  return (succ + static_cast<int>(groups_.size()) - 1) %
         static_cast<int>(groups_.size());
}

std::uint32_t GroupedOverlay::responsible(NodeId key) const {
  const auto& members =
      groups_[static_cast<std::size_t>(responsible_group(key))].members;
  const RingView view(net_->space(), net_->ids(),
                      {members.data(), members.size()});
  return view.predecessor_or_self(key);
}

std::uint64_t GroupedOverlay::group_distance(NodeId from_gid,
                                             NodeId to_gid) const {
  if (prefix_bits_ == 0) return 0;
  const std::uint64_t mask = (prefix_bits_ == 64)
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << prefix_bits_) - 1;
  return (to_gid - from_gid) & mask;
}

namespace {

/// The latency-nearest of up to `samples` randomly sampled group members.
std::uint32_t pick_nearest(const std::vector<std::uint32_t>& members,
                           std::uint32_t from, const HopCost& latency,
                           int samples, Rng& rng) {
  std::uint32_t best = RingView::kNone;
  double best_ms = 0;
  const int budget = std::min<int>(samples, static_cast<int>(members.size()));
  for (int i = 0; i < budget; ++i) {
    const std::uint32_t cand =
        budget == static_cast<int>(members.size())
            ? members[static_cast<std::size_t>(i)]
            : members[rng.uniform(members.size())];
    if (cand == from) continue;
    const double ms = latency(from, cand);
    if (best == RingView::kNone || ms < best_ms) {
      best = cand;
      best_ms = ms;
    }
  }
  return best;
}

/// Adds node `m`'s group-level Chord links: for each 0 <= k < T, the first
/// non-empty group at group distance >= 2^k, capped (strictly) at
/// `group_limit` group-distance (condition (b) at group granularity; pass
/// kNoLimit for flat Chord Prox). Endpoints are latency-sampled.
void add_group_links(const OverlayNetwork& /*net*/,
                     const GroupedOverlay& groups,
                     std::uint32_t m, std::uint64_t group_limit,
                     const HopCost& latency, const ProximityConfig& cfg,
                     Rng& rng, LinkRow& out) {
  const int T = groups.prefix_bits();
  const NodeId g = groups.gid_of_node(m);
  for (int k = 0; k < T; ++k) {
    const std::uint64_t dist = std::uint64_t{1} << k;
    if (dist >= group_limit) break;
    const std::uint64_t mask = (std::uint64_t{1} << T) - 1;
    const int gi = groups.group_successor((g + dist) & mask);
    const auto& target = groups.groups()[static_cast<std::size_t>(gi)];
    const std::uint64_t covered = groups.group_distance(g, target.gid);
    if (covered == 0 || covered >= group_limit) continue;
    const std::uint32_t v =
        pick_nearest(target.members, m, latency, cfg.sample_size, rng);
    if (v != RingView::kNone) out.push_back(v);
  }
}

void add_clique_links(const GroupedOverlay& groups, std::uint32_t m,
                      LinkRow& out) {
  const auto& mine =
      groups.groups()[static_cast<std::size_t>(groups.group_index_of(m))];
  out.insert(out.end(), mine.members.begin(), mine.members.end());
}

}  // namespace

LinkTable build_chord_prox(const OverlayNetwork& net,
                           const GroupedOverlay& groups,
                           const HopCost& latency, const ProximityConfig& cfg,
                           Rng& rng) {
  telemetry::ScopedTimer timer("build.chord_prox_ms");
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_clique_links(groups, m, row);
    add_group_links(net, groups, m, kNoLimit, latency, cfg, node_rng, row);
  });
}

LinkTable build_crescendo_prox(const OverlayNetwork& net,
                               const GroupedOverlay& groups,
                               const HopCost& latency,
                               const ProximityConfig& cfg, Rng& rng) {
  telemetry::ScopedTimer timer("build.crescendo_prox_ms");
  const DomainTree& dom = net.domains();
  const auto add_node_links = [&](std::uint32_t m, Rng& node_rng,
                                  LinkRow& out) {
    add_clique_links(groups, m, out);
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    if (leaf == 0) {
      // Flat population: the whole structure is group-based.
      add_group_links(net, groups, m, kNoLimit, latency, cfg, node_rng, out);
      return;
    }
    // Normal Crescendo inside the leaf and at every merge except the root.
    add_chord_fingers(net,
                      net.domain_ring(chain[static_cast<std::size_t>(leaf)]),
                      m, kNoLimit, out);
    for (int level = leaf - 1; level >= 1; --level) {
      const std::uint64_t limit =
          net.domain_ring(chain[static_cast<std::size_t>(level + 1)])
              .successor_distance(net.id(m));
      add_chord_fingers(
          net, net.domain_ring(chain[static_cast<std::size_t>(level)]), m,
          limit, out);
    }
    // Top-level merge: group-based, with condition (b) at group
    // granularity — only groups strictly closer than the group of the
    // child-ring successor.
    const RingView child = net.domain_ring(chain[1]);
    const std::uint32_t succ = child.first_at_distance(net.id(m), 1);
    std::uint64_t group_limit = kNoLimit;
    if (succ != RingView::kNone && succ != m) {
      group_limit = groups.group_distance(groups.gid_of_node(m),
                                          groups.gid_of_node(succ));
      if (group_limit == 0) return;  // child successor shares the group
    }
    add_group_links(net, groups, m, group_limit, latency, cfg, node_rng, out);
  };
  // Per-node forked RNG streams (see build_symphony): deterministic at any
  // thread count.
  const Rng base = rng;
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = base.fork(m);
    add_node_links(m, node_rng, row);
  });
}

GroupRouter::GroupRouter(const OverlayNetwork& net,
                         const GroupedOverlay& groups, const LinkTable& links)
    : net_(&net),
      groups_(&groups),
      links_(&links),
      max_hops_(4 * net.space().bits() + 16) {}

namespace {

// Recorder-policy core shared by route()/route_into()/probe(), mirroring
// the pattern in overlay/routing.cc: the recorder appends nodes entered
// after `from` (or is a no-op for probe), and the core itself touches no
// telemetry and no mutable state.
template <typename Recorder>
RouteProbe group_core(const OverlayNetwork& net, const GroupedOverlay& groups,
                      const LinkTable& links, int max_hops, std::uint32_t from,
                      NodeId key, Recorder&& record) {
  const IdSpace& space = net.space();
  const int target_group = groups.responsible_group(key);
  const NodeId target_gid =
      groups.groups()[static_cast<std::size_t>(target_group)].gid;
  const std::uint32_t target = groups.responsible(key);

  std::uint32_t current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    if (current == target) {
      return {current, hops, true};
    }
    const NodeId cur_gid = groups.gid_of_node(current);
    if (cur_gid == target_gid) {
      // Final intra-group hop over the dense group network.
      if (links.has_link(current, target)) {
        record(target);
        return {target, hops + 1, true};
      }
      return {current, hops, false};
    }
    // Greedy on group distance, never overshooting the target group; ties
    // broken by clockwise ID progress toward the key.
    const std::uint64_t remaining_groups =
        groups.group_distance(cur_gid, target_gid);
    const std::uint64_t remaining_ids =
        space.ring_distance(net.id(current), key);
    std::uint32_t best = current;
    std::uint64_t best_gcov = 0;
    std::uint64_t best_icov = 0;
    for (const std::uint32_t nb : links.neighbors(current)) {
      const std::uint64_t gcov =
          groups.group_distance(cur_gid, groups.gid_of_node(nb));
      if (gcov > remaining_groups) continue;  // overshoots the target group
      const std::uint64_t icov =
          space.ring_distance(net.id(current), net.id(nb));
      if (gcov == 0 && icov > remaining_ids) continue;
      if (gcov > best_gcov || (gcov == best_gcov && icov > best_icov)) {
        best_gcov = gcov;
        best_icov = icov;
        best = nb;
      }
    }
    if (best == current) {
      return {current, hops, false};
    }
    current = best;
    ++hops;
    record(current);
  }
  return {current, hops, false};
}

struct GroupNullRecorder {
  void operator()(std::uint32_t) const {}
};

struct GroupPathRecorder {
  std::vector<std::uint32_t>* path;
  void operator()(std::uint32_t node) const { path->push_back(node); }
};

// Lane state + hooks of the interleaved group batch kernel, driven by
// detail::interleaved_probe_batch (overlay/batch_probe.h). The lane
// carries cur_id forward from the winning scan entry (target_ids_[k] is
// ids[targets_[k]] by CSR construction) and derives every group ID from
// it via gid_of_key — gid_of_node(m) == gid_of_key(net.id(m)) — so the
// steady-state hop reads only the prefetched CSR row. The scan body is
// group_core's loop verbatim, with indices tracked instead of nodes.
struct GroupStepper {
  const OverlayNetwork& net;
  const GroupedOverlay& groups;
  const LinkTable& links;
  std::uint64_t mask;  // ID-space mask (ring_distance on raw NodeIds)
  int max_hops;

  struct Lane {
    std::size_t query_index;
    std::uint32_t current;
    NodeId cur_id;
    NodeId key;
    std::uint32_t target;
    NodeId target_gid;
    int hops;
    LinkOffset row_begin;
    LinkOffset row_end;
    bool need_id;
  };

  void begin(Lane& l, const Query& q, std::size_t query_index) const {
    l.query_index = query_index;
    l.current = q.from;
    l.key = q.key;
    l.hops = 0;
    l.need_id = true;
    // The same up-front responsibility lookups group_core performs once
    // per query.
    const int target_group = groups.responsible_group(q.key);
    l.target_gid = groups.groups()[static_cast<std::size_t>(target_group)].gid;
    l.target = groups.responsible(q.key);
    prefetch_ro(net.ids().data() + q.from);
    links.prefetch_row_bounds(q.from);
  }

  void fetch(Lane& l) const {
    if (l.need_id) {
      l.cur_id = net.id(l.current);
      l.need_id = false;
    }
    const auto [b, e] = links.row_bounds(l.current);
    l.row_begin = b;
    l.row_end = e;
    links.prefetch_row_payload(b, e);
  }

  bool advance(Lane& l, RouteProbe& out) const {
    if (l.hops >= max_hops) {  // group_core's hop-guard exhaustion
      out = {l.current, l.hops, false};
      return true;
    }
    if (l.current == l.target) {
      out = {l.current, l.hops, true};
      return true;
    }
    const NodeId cur_gid = groups.gid_of_key(l.cur_id);
    if (cur_gid == l.target_gid) {
      // Final intra-group hop over the dense group network.
      if (links.has_link(l.current, l.target)) {
        out = {l.target, l.hops + 1, true};
      } else {
        out = {l.current, l.hops, false};
      }
      return true;
    }
    const std::uint64_t remaining_groups =
        groups.group_distance(cur_gid, l.target_gid);
    const std::uint64_t remaining_ids = (l.key - l.cur_id) & mask;
    const NodeId* ids = links.target_ids_data() + l.row_begin;
    const std::size_t count = l.row_end - l.row_begin;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t best_j = kNone;
    std::uint64_t best_gcov = 0;
    std::uint64_t best_icov = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t gcov =
          groups.group_distance(cur_gid, groups.gid_of_key(ids[j]));
      if (gcov > remaining_groups) continue;  // overshoots the target group
      const std::uint64_t icov = (ids[j] - l.cur_id) & mask;
      if (gcov == 0 && icov > remaining_ids) continue;
      if (gcov > best_gcov || (gcov == best_gcov && icov > best_icov)) {
        best_gcov = gcov;
        best_icov = icov;
        best_j = j;
      }
    }
    if (best_j == kNone) {
      out = {l.current, l.hops, false};
      return true;
    }
    l.current = links.targets_data()[l.row_begin + best_j];
    l.cur_id = ids[best_j];
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  }
};

}  // namespace

void GroupRouter::route_into(std::uint32_t from, NodeId key,
                             Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  out.ok = group_core(*net_, *groups_, *links_, max_hops_, from, key,
                      GroupPathRecorder{&out.path})
               .ok;
}

RouteProbe GroupRouter::probe(std::uint32_t from, NodeId key) const {
  return group_core(*net_, *groups_, *links_, max_hops_, from, key,
                    GroupNullRecorder{});
}

void GroupRouter::probe_batch(std::span<const Query> queries,
                              std::span<RouteProbe> out) const {
  if (queries.size() != out.size()) {
    throw std::invalid_argument("probe_batch: out.size() != queries.size()");
  }
  const int width = probe_batch_width();
  if (width <= 0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = probe(queries[i].from, queries[i].key);
    }
    return;
  }
  detail::interleaved_probe_batch(
      queries, out, width,
      GroupStepper{*net_, *groups_, *links_, net_->space().mask(), max_hops_});
}

Route GroupRouter::route(std::uint32_t from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  return r;
}

namespace {

bool in_list(const std::vector<std::uint32_t>& list, std::uint32_t node) {
  return std::find(list.begin(), list.end(), node) != list.end();
}

}  // namespace

ResilientGroupRouter::ResilientGroupRouter(const OverlayNetwork& net,
                                           const GroupedOverlay& groups,
                                           const LinkTable& links,
                                           int retry_budget)
    : net_(&net),
      groups_(&groups),
      links_(&links),
      retry_budget_(retry_budget),
      max_hops_(4 * net.space().bits() + 16) {
  if (retry_budget < 1) {
    throw std::invalid_argument("ResilientGroupRouter: retry budget < 1");
  }
}

std::uint32_t ResilientGroupRouter::live_responsible(
    NodeId key, const FailureSet& dead) const {
  const std::uint32_t structural = groups_->responsible(key);
  if (!dead.dead(structural)) return structural;
  // Node indices are ring positions (ascending-ID order): walk
  // predecessors from the structural responsible until a live one.
  const std::uint32_t n = static_cast<std::uint32_t>(net_->size());
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::uint32_t candidate = (structural + n - i) % n;
    if (!dead.dead(candidate)) return candidate;
  }
  throw std::logic_error("live_responsible: everyone is dead");
}

template <typename Recorder>
ResilientProbe ResilientGroupRouter::core(std::uint32_t from, NodeId key,
                                          const FailureSet& dead,
                                          DropRoller& drops, Scratch& scratch,
                                          Recorder&& record) const {
  if (dead.dead(from)) {
    throw std::invalid_argument("ResilientGroupRouter: source is dead");
  }
  const IdSpace& space = net_->space();
  const bool faults = dead.any() || drops.active();
  const std::uint32_t target =
      faults ? live_responsible(key, dead) : groups_->responsible(key);
  const NodeId target_gid = groups_->gid_of_node(target);

  std::uint32_t current = from;
  int hops = 0;
  int retries = 0;
  int fallback_hops = 0;
  for (int step = 0; step < max_hops_; ++step) {
    if (current == target) return {current, hops, true, retries, fallback_hops};
    const NodeId cur_gid = groups_->gid_of_node(current);
    const std::uint64_t remaining_groups =
        groups_->group_distance(cur_gid, target_gid);
    const std::uint64_t remaining_ids =
        space.ring_distance(net_->id(current), key);
    scratch.banned.clear();
    int attempts = retry_budget_;
    for (;;) {  // per-hop retry ladder
      std::uint32_t best = current;
      bool final_hop = false;
      bool via_fallback = false;
      if (cur_gid == target_gid) {
        // Final intra-group hop over the dense group network.
        if (!links_->has_link(current, target)) {
          return {current, hops, false, retries, fallback_hops};
        }
        best = target;
        final_hop = true;
      } else {
        // Greedy on group distance, never overshooting the target group;
        // ties broken by clockwise ID progress toward the key.
        std::uint64_t best_gcov = 0;
        std::uint64_t best_icov = 0;
        for (const std::uint32_t nb : links_->neighbors(current)) {
          const std::uint64_t gcov =
              groups_->group_distance(cur_gid, groups_->gid_of_node(nb));
          if (gcov > remaining_groups) continue;  // overshoots
          const std::uint64_t icov =
              space.ring_distance(net_->id(current), net_->id(nb));
          if (gcov == 0 && icov > remaining_ids) continue;
          if (faults && (dead.dead(nb) || in_list(scratch.banned, nb))) {
            continue;
          }
          if (gcov > best_gcov || (gcov == best_gcov && icov > best_icov)) {
            best_gcov = gcov;
            best_icov = icov;
            best = nb;
          }
        }
        if (best == current && faults) {
          // Sidestep: the live neighbor strictly closer to the target in
          // (group distance, ID distance) lexicographic order — strictly
          // decreasing, so fallback chains cannot cycle.
          std::uint64_t best_gd = remaining_groups;
          std::uint64_t best_idd = remaining_ids;
          for (const std::uint32_t nb : links_->neighbors(current)) {
            if (dead.dead(nb) || in_list(scratch.banned, nb)) continue;
            const std::uint64_t gd =
                groups_->group_distance(groups_->gid_of_node(nb), target_gid);
            const std::uint64_t idd =
                space.ring_distance(net_->id(nb), key);
            if (gd < best_gd || (gd == best_gd && idd < best_idd)) {
              best_gd = gd;
              best_idd = idd;
              best = nb;
            }
          }
          via_fallback = best != current;
        }
      }
      if (best == current) {
        return {current, hops, false, retries, fallback_hops};  // stuck
      }
      if (drops.drop()) {
        ++retries;
        if (--attempts <= 0) {
          return {current, hops, false, retries, fallback_hops};  // lost
        }
        // The clique hop has a single possible receiver: retransmit
        // instead of banning it.
        if (!final_hop) scratch.banned.push_back(best);
        continue;
      }
      if (via_fallback) ++fallback_hops;
      current = best;
      ++hops;
      record(current);
      break;
    }
  }
  return {current, hops, false, retries, fallback_hops};
}

ResilientProbe ResilientGroupRouter::route_into(std::uint32_t from, NodeId key,
                                                const FailureSet& dead,
                                                DropRoller& drops,
                                                Scratch& scratch,
                                                Route& out) const {
  out.path.clear();
  out.path.push_back(from);
  out.ok = false;
  const ResilientProbe p =
      core(from, key, dead, drops, scratch, GroupPathRecorder{&out.path});
  out.ok = p.ok;
  return p;
}

ResilientProbe ResilientGroupRouter::probe(std::uint32_t from, NodeId key,
                                           const FailureSet& dead,
                                           DropRoller& drops,
                                           Scratch& scratch) const {
  return core(from, key, dead, drops, scratch, GroupNullRecorder{});
}

}  // namespace canon
