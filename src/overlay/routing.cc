#include "overlay/routing.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "common/prefetch.h"
#include "overlay/batch_probe.h"

namespace canon {

namespace {

constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);
static_assert(kNoCandidate == detail::kNoScanWinner,
              "scalar cores and batch kernels share the sentinel");

// Process-wide batch window (see routing.h). Relaxed atomics: the knob is
// set once at startup (bench flag parsing) or between batches in tests —
// never mid-batch — so ordering carries no data.
std::atomic<int> g_probe_batch_width{kDefaultProbeBatchWidth};

int hop_guard(const OverlayNetwork& net) {
  // Generous upper bound; all routes in a correct structure finish in
  // O(log n) << 4N hops. Exceeding this indicates a broken link table.
  return 4 * net.space().bits() + 16;
}

// The greedy loops below are shared by every routing entry point through a
// recorder policy: route()/route_into() pass a recorder that appends each
// hop to a path vector, probe() passes a no-op recorder and the loop
// degrades to pure hop counting. The cores touch no telemetry and no
// mutable router state, so they are safe to run concurrently on one const
// router — the batch QueryEngine's fan-out relies on that.

struct NullRecorder {
  void operator()(NodeIndex) const {}
};

struct PathRecorder {
  std::vector<NodeIndex>* path;
  void operator()(NodeIndex node) const { path->push_back(node); }
};

/// Greedy clockwise core. Records every node entered after `from`;
/// returns terminal/hops/ok.
template <typename Recorder>
RouteProbe ring_core(const OverlayNetwork& net, const LinkTable& links,
                     int max_hops, NodeIndex from, NodeId key,
                     Recorder&& record) {
  const IdSpace& space = net.space();
  NodeIndex current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    const std::uint64_t remaining = space.ring_distance(net.id(current), key);
    // Choose the neighbor that covers the most clockwise distance without
    // overshooting the key. The scan reads only the contiguous NodeId
    // array; the winner's index is fetched once afterwards. It shares the
    // branch-light kernel with the batch probe (overlay/batch_probe.h) —
    // one winner-selection to test, one to autovectorize.
    const auto neighbors = links.neighbors(current);
    const std::size_t best_j = detail::ring_scan_argbest(
        links.neighbor_ids(current).data(), neighbors.size(),
        net.id(current), space.mask(), remaining);
    const NodeIndex best =
        best_j == kNoCandidate ? current : neighbors[best_j];
    if (best == current) {
      return {current, hops, current == net.responsible(key)};
    }
    current = best;
    ++hops;
    record(current);
  }
  // Hop guard exceeded: structurally broken table.
  return {current, hops, false};
}

/// Greedy-with-lookahead core (Symphony §3.1): commits to the whole best
/// 2-step plan, recording one or two nodes per iteration.
template <typename Recorder>
RouteProbe ring_lookahead_core(const OverlayNetwork& net,
                               const LinkTable& links, int max_hops,
                               NodeIndex from, NodeId key,
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
        const NodeId w_id = second_ids[k];
        const std::uint64_t covered2 = space.ring_distance(v_id, w_id);
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
      return {current, hops, current == net.responsible(key)};
    }
    record(best_v);
    ++hops;
    if (best_w != best_v) {
      record(best_w);
      ++hops;
    }
    current = best_w;
  }
  return {current, hops, false};
}

/// Greedy XOR-distance core.
template <typename Recorder>
RouteProbe xor_core(const OverlayNetwork& net, const LinkTable& links,
                    int max_hops, NodeIndex from, NodeId key,
                    Recorder&& record) {
  const IdSpace& space = net.space();
  NodeIndex current = from;
  int hops = 0;
  for (int step = 0; step < max_hops; ++step) {
    const std::uint64_t remaining = space.xor_distance(net.id(current), key);
    const auto neighbors = links.neighbors(current);
    const std::size_t best_j =
        detail::xor_scan_argbest(links.neighbor_ids(current).data(),
                                 neighbors.size(), key, space.mask(),
                                 remaining);
    const NodeIndex best =
        best_j == kNoCandidate ? current : neighbors[best_j];
    if (best == current) {
      return {current, hops, current == net.xor_closest(key)};
    }
    current = best;
    ++hops;
    record(current);
  }
  return {current, hops, false};
}

/// Resets `out` (keeping its capacity) and stamps the probe result of a
/// path-recording core run onto it.
void begin_route(Route& out, NodeIndex from) {
  out.path.clear();
  out.path.push_back(from);
  out.ok = false;
}

/// Telemetry epilogue of the single-query route() paths: bumps the
/// route/hop/failure counters and, when a sink is attached, replays the
/// completed path as begin/on_hop*/end events. The replayed records are
/// field-identical to what the pre-refactor inline emission produced: a
/// hop's `candidates` is the out-degree of its `from` node and its level
/// the endpoints' LCA depth, both recomputable from the path.
void finish_route(const Route& r, NodeId key, const OverlayNetwork& net,
                  const LinkTable& links, telemetry::Counter* routes,
                  telemetry::Counter* hops, telemetry::Counter* failures,
                  telemetry::RouteTraceSink* sink) {
  if (routes) {
    routes->inc();
    hops->inc(static_cast<std::uint64_t>(r.hops()));
    if (!r.ok) failures->inc();
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

// Lane state + metric hooks of the interleaved batch kernels, driven by
// detail::interleaved_probe_batch (overlay/batch_probe.h has the
// fetch/advance contract, round structure, and equivalence argument).
// Both steppers carry the current node's NodeId forward from the winning
// scan entry — target_ids_[k] is ids[targets_[k]] by CSR construction —
// so the steady-state hop never touches the overlay's id array; only a
// fresh lane reads it once (need_id).

struct RingStepper {
  const OverlayNetwork& net;
  const LinkTable& links;
  std::uint64_t mask;
  int max_hops;

  struct Lane {
    std::size_t query_index;
    NodeIndex current;
    NodeId cur_id;  // == net.id(current) once need_id clears
    NodeId key;
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
    if (l.hops >= max_hops) {  // ring_core's hop-guard exhaustion
      out = {l.current, l.hops, false};
      return true;
    }
    const std::uint64_t remaining = (l.key - l.cur_id) & mask;
    const NodeId* ids = links.target_ids_data() + l.row_begin;
    const std::size_t count = l.row_end - l.row_begin;
    const std::size_t best_j =
        detail::ring_scan_argbest(ids, count, l.cur_id, mask, remaining);
    if (best_j == kNoCandidate) {
      out = {l.current, l.hops, l.current == net.responsible(l.key)};
      return true;
    }
    l.current = links.targets_data()[l.row_begin + best_j];
    l.cur_id = ids[best_j];
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  }
};

struct XorStepper {
  const OverlayNetwork& net;
  const LinkTable& links;
  std::uint64_t mask;
  int max_hops;

  struct Lane {
    std::size_t query_index;
    NodeIndex current;
    NodeId cur_id;
    NodeId key;
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
    if (l.hops >= max_hops) {  // xor_core's hop-guard exhaustion
      out = {l.current, l.hops, false};
      return true;
    }
    const std::uint64_t remaining = (l.cur_id ^ l.key) & mask;
    const NodeId* ids = links.target_ids_data() + l.row_begin;
    const std::size_t count = l.row_end - l.row_begin;
    const std::size_t best_j =
        detail::xor_scan_argbest(ids, count, l.key, mask, remaining);
    if (best_j == kNoCandidate) {
      out = {l.current, l.hops, l.current == net.xor_closest(l.key)};
      return true;
    }
    l.current = links.targets_data()[l.row_begin + best_j];
    l.cur_id = ids[best_j];
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  }
};

/// Shared probe_batch shell: scalar loop when batching is off, else the
/// windowed driver.
template <typename Stepper, typename Router>
void probe_batch_with(std::span<const Query> queries,
                      std::span<RouteProbe> out, const Router& router,
                      const OverlayNetwork& net, const LinkTable& links,
                      int max_hops) {
  if (queries.size() != out.size()) {
    throw std::invalid_argument("probe_batch: out.size() != queries.size()");
  }
  const int width = probe_batch_width();
  if (width <= 0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = router.probe(queries[i].from, queries[i].key);
    }
    return;
  }
  detail::interleaved_probe_batch(
      queries, out, width, Stepper{net, links, net.space().mask(), max_hops});
}

}  // namespace

int probe_batch_width() {
  return g_probe_batch_width.load(std::memory_order_relaxed);
}

void set_probe_batch_width(int width) {
  g_probe_batch_width.store(std::clamp(width, 0, kMaxProbeBatchWidth),
                            std::memory_order_relaxed);
}

RingRouter::RingRouter(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net),
      links_(&links),
      max_hops_(hop_guard(net)),
      routes_counter_(telemetry::maybe_counter("ring_router.routes")),
      hops_counter_(telemetry::maybe_counter("ring_router.hops")),
      failures_counter_(telemetry::maybe_counter("ring_router.failures")) {
  if (links.node_count() != net.size()) {
    throw std::invalid_argument("RingRouter: link table size mismatch");
  }
}

void RingRouter::route_into(NodeIndex from, NodeId key, Route& out) const {
  begin_route(out, from);
  out.ok =
      ring_core(*net_, *links_, max_hops_, from, key, PathRecorder{&out.path})
          .ok;
}

RouteProbe RingRouter::probe(NodeIndex from, NodeId key) const {
  return ring_core(*net_, *links_, max_hops_, from, key, NullRecorder{});
}

void RingRouter::probe_batch(std::span<const Query> queries,
                             std::span<RouteProbe> out) const {
  probe_batch_with<RingStepper>(queries, out, *this, *net_, *links_,
                                max_hops_);
}

Route RingRouter::route(NodeIndex from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

void RingRouter::route_lookahead_into(NodeIndex from, NodeId key,
                                      Route& out) const {
  begin_route(out, from);
  out.ok = ring_lookahead_core(*net_, *links_, max_hops_, from, key,
                               PathRecorder{&out.path})
               .ok;
}

RouteProbe RingRouter::probe_lookahead(NodeIndex from, NodeId key) const {
  return ring_lookahead_core(*net_, *links_, max_hops_, from, key,
                             NullRecorder{});
}

Route RingRouter::route_lookahead(NodeIndex from, NodeId key) const {
  Route r;
  route_lookahead_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

XorRouter::XorRouter(const OverlayNetwork& net, const LinkTable& links)
    : net_(&net),
      links_(&links),
      max_hops_(hop_guard(net)),
      routes_counter_(telemetry::maybe_counter("xor_router.routes")),
      hops_counter_(telemetry::maybe_counter("xor_router.hops")),
      failures_counter_(telemetry::maybe_counter("xor_router.failures")) {
  if (links.node_count() != net.size()) {
    throw std::invalid_argument("XorRouter: link table size mismatch");
  }
}

void XorRouter::route_into(NodeIndex from, NodeId key, Route& out) const {
  begin_route(out, from);
  out.ok =
      xor_core(*net_, *links_, max_hops_, from, key, PathRecorder{&out.path})
          .ok;
}

RouteProbe XorRouter::probe(NodeIndex from, NodeId key) const {
  return xor_core(*net_, *links_, max_hops_, from, key, NullRecorder{});
}

void XorRouter::probe_batch(std::span<const Query> queries,
                            std::span<RouteProbe> out) const {
  probe_batch_with<XorStepper>(queries, out, *this, *net_, *links_,
                               max_hops_);
}

Route XorRouter::route(NodeIndex from, NodeId key) const {
  Route r;
  route_into(from, key, r);
  finish_route(r, key, *net_, *links_, routes_counter_, hops_counter_,
               failures_counter_, sink_);
  return r;
}

}  // namespace canon
