// Greedy overlay routing (Section 2.2 of the paper).
//
// Routing in every Canon construction is plain greedy routing on the
// relevant metric over the union of a node's links; the hierarchical
// behaviour (intra-domain locality, inter-domain convergence) is emergent.
// The per-hop decision is written once per metric as a hop kernel
// (overlay/stepper.h has the contract), and GreedyRouter<Kernel> runs
// every routing mode over it:
//
// * RingKernel: greedy clockwise, never overshooting the key. Terminates
//   at the key's responsible node (its closest predecessor).
// * LookaheadKernel: Symphony's greedy-with-lookahead (Section 3.1), the
//   ring kernel planning two hops at a time.
// * XorKernel: greedy XOR-distance reduction (Kademlia/Kandy).
// * GroupKernel (canon/proximity.h), CanKernel (dht/can.h) and
//   CanCanKernel (canon/cancan.h).
//
// Hot-path contract of every GreedyRouter:
//
// * route(from, key)          — allocates a fresh Route and bumps the
//                               router's telemetry counters (registered on
//                               the first call). The single-query
//                               convenience path.
// * route_into(from, key, r)  — identical path/ok result written into the
//                               caller's Route, reusing its capacity. No
//                               telemetry: safe to call concurrently from
//                               many threads on one const router (the
//                               batch QueryEngine's full mode).
// * probe(from, key)          — hop count + terminal only, no path storage
//                               at all. Same concurrency guarantee.
// * probe_batch(queries, out) — the interleaved batch loop
//                               (overlay/batch_probe.h): out[i] is exactly
//                               probe(queries[i]) at every batch width
//                               (the QueryEngine's mode when nobody needs
//                               paths).
// * the failure-aware route_into / probe / route — the same walk given a
//   FailureSet, DropRoller and scratch: it skips dead and banned
//   candidates, retries dropped forwards on the next candidate, asks the
//   kernel's second tier when nothing live makes progress, and aims at
//   the kernel's live target (docs/RESILIENCE.md). With no dead node and
//   no drops it is the plain walk.
//
// All of them are one scalar walk (overlay/greedy_walk.h) or the batch
// loop over the same kernel, so they agree by construction. Each has
// exactly one hop-guard exit, reported as RouteProbe::hop_guard.
// Callers of route_into/probe own their telemetry: the QueryEngine
// accumulates per-shard tallies and flushes them after its merge barrier
// (telemetry::Counter is a plain uint64_t and must never be shared across
// shards), and it is the one place that replays routes into a trace sink.
#ifndef CANON_OVERLAY_ROUTING_H
#define CANON_OVERLAY_ROUTING_H

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/stepper.h"
#include "telemetry/metrics.h"

namespace canon {

/// The hop-by-hop trace of one routed query.
struct Route {
  std::vector<NodeIndex> path;  ///< node indices, source first
  bool ok = false;  ///< true if routing reached the correct destination
  bool hop_guard = false;  ///< stopped by the hop guard (implies !ok)

  int hops() const { return static_cast<int>(path.size()) - 1; }
  NodeIndex source() const { return path.front(); }
  NodeIndex terminal() const { return path.back(); }
};

/// Terminal-only outcome of a routed query: what probe-mode routing
/// returns, and what route_into/route imply hop-for-hop. For the same
/// (from, key) on the same structure, probe() and route() agree on every
/// field.
struct RouteProbe {
  NodeIndex terminal = 0;  ///< node the query stopped at
  int hops = 0;                ///< forwarding steps taken
  bool ok = false;             ///< reached the correct destination
  /// Stopped by the hop guard: a structurally broken table, counted apart
  /// from ordinary failures (implies !ok).
  bool hop_guard = false;

  friend bool operator==(const RouteProbe&, const RouteProbe&) = default;
};

/// Outcome of one failure-aware routed query: a RouteProbe plus the
/// recovery work it took. With no faults `retries` and `fallback_hops`
/// are 0 and to_probe() matches the plain router's probe() exactly.
struct ResilientProbe {
  NodeIndex terminal = 0;
  int hops = 0;
  bool ok = false;
  int retries = 0;        ///< dropped forwarding attempts that were retried
  /// Hops that did not go to the candidate the kernel ranks first with
  /// nothing skipped (docs/RESILIENCE.md "Fallback hops").
  int fallback_hops = 0;
  bool hop_guard = false;

  RouteProbe to_probe() const {
    return RouteProbe{terminal, hops, ok, hop_guard};
  }

  friend bool operator==(const ResilientProbe&,
                         const ResilientProbe&) = default;
};

/// Per-hop retry budget of the failure-aware walk (Kademlia's alpha):
/// after this many consecutive drops on one hop the query is lost.
inline constexpr int kRetryBudget = 3;

/// One lookup of a batch workload (lives here rather than in
/// query_engine.h so the routers' probe_batch entry points can name it).
struct Query {
  NodeIndex from = 0;      ///< source node index
  NodeId key = 0;          ///< target key

  friend bool operator==(const Query&, const Query&) = default;
};

/// Hard cap on the interleaved batch window: lane state must stay small
/// enough to live in L1 while W outstanding CSR rows stream in.
inline constexpr int kMaxProbeBatchWidth = 64;

/// Default window. 8-16 lanes cover typical DRAM latency at one greedy
/// scan (~tens of ns) per lane per round; chosen by measurement on the
/// reference container (docs/PERFORMANCE.md "Memory-level parallelism").
inline constexpr int kDefaultProbeBatchWidth = 16;

/// Process-wide batch window for every probe_batch() entry point
/// (routers are stateless about it, like parallel thread count).
/// Width <= 0 selects the scalar per-query probe loop — the reference
/// the equivalence tests compare against; width 1 runs the interleaved
/// kernel with a single lane. Values above kMaxProbeBatchWidth clamp.
/// Results are byte-identical at every width by construction.
int probe_batch_width();
void set_probe_batch_width(int width);

/// Caller-owned per-shard buffers of the failure-aware walk; capacity is
/// reused across queries (the allocation-free contract of the batch hot
/// paths).
struct FaultScratch {
  std::vector<NodeIndex> banned;  ///< candidates dropped this hop
  std::vector<NodeIndex> leaf;    ///< ring leaf-set candidates of one hop
  std::vector<NodeId> leaf_ids;   ///< their IDs, aligned with `leaf`
};

/// Every routing mode over one hop kernel; see the file comment. The
/// constructor arguments are the kernel's (every kernel takes the overlay
/// first). Instantiated once per kernel in the kernel's own source file.
template <typename Kernel>
class GreedyRouter {
 public:
  using Scratch = FaultScratch;

  template <typename... Args>
  explicit GreedyRouter(const OverlayNetwork& net, Args&&... args)
      : kernel_(net, std::forward<Args>(args)...) {}

  const Kernel& kernel() const { return kernel_; }

  /// Routes from `from` towards `key`. Route::ok is set iff the walk ends
  /// at the kernel's correct destination.
  Route route(NodeIndex from, NodeId key) const;
  void route_into(NodeIndex from, NodeId key, Route& out) const;
  RouteProbe probe(NodeIndex from, NodeId key) const;

  /// Memory-level-parallel probe: advances probe_batch_width() queries in
  /// lockstep, one greedy hop each per round, prefetching every lane's
  /// next CSR row before any row is scanned. out[i] is exactly
  /// probe(queries[i].from, queries[i].key) at every width; only the
  /// memory schedule differs. Width <= 0 runs the scalar probe loop.
  /// Requires out.size() == queries.size().
  void probe_batch(std::span<const Query> queries,
                   std::span<RouteProbe> out) const;

  /// Failure-aware routing from a live source: ok iff the terminal is the
  /// kernel's live target. Throws std::invalid_argument on a dead source.
  ResilientProbe route_into(NodeIndex from, NodeId key, const FailureSet& dead,
                            DropRoller& drops, Scratch& scratch,
                            Route& out) const;
  ResilientProbe probe(NodeIndex from, NodeId key, const FailureSet& dead,
                       DropRoller& drops, Scratch& scratch) const;
  /// Single-query convenience: fresh buffers, no message drops.
  Route route(NodeIndex from, NodeId key, const FailureSet& dead) const;

  /// The kernel as the message simulator's resumable hop.
  Stepper stepper() const;

 private:
  void finish(const Route& r) const;

  Kernel kernel_;
  // <prefix>.routes / .hops / .failures, registered on the first route()
  // that finds a registry (route() is the single-threaded convenience
  // path, like the counters themselves).
  mutable std::array<telemetry::Counter*, 3> counters_{};
};

/// Greedy clockwise kernel (Chord/Crescendo/Symphony/... — every ring
/// family): candidates advance clockwise without overshooting the key,
/// scored by the distance covered; the lookup ends at the key's
/// responsible node (its live predecessor under faults). Second tier: the
/// leaf set — the next `leaf_set` live successors at every level of the
/// node's domain chain (Section 2.3). `net` and `links` are borrowed.
class RingKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = "ring_router";

  RingKernel(const OverlayNetwork& net, const LinkTable& links,
             int leaf_set = 4);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

  /// The live node responsible for `key` (closest live predecessor).
  NodeIndex live_responsible(NodeId key, const FailureSet& dead) const;

  /// Live leaf-set candidates of `m`, collected into the caller-owned
  /// `out` (cleared first, capacity reused).
  void live_candidates(NodeIndex m, const FailureSet& dead,
                       std::vector<NodeIndex>& out) const;

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  std::uint64_t mask_;
  int leaf_set_;
  int max_hops_;
};

/// Greedy with a one-step lookahead (Symphony, Section 3.1): the ring
/// kernel planning two hops at a time. On a planning hop (state 0) it
/// ranks each clockwise, non-overshooting neighbor v by the distance
/// covered to v plus the most v's own greedy hop covers (under faults, to
/// a live node), and commits the pair by setting state 1. On the committed
/// hop (state 1) it takes the ring kernel's greedy hop from v, which is
/// the plan's second step. Where no neighbor makes progress the lookup
/// ends as the ring kernel's does, second tier (the default leaf set)
/// included.
class LookaheadKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = RingKernel::kCounterPrefix;

  LookaheadKernel(const OverlayNetwork& net, const LinkTable& links);

  const OverlayNetwork& net() const { return ring_.net(); }
  const LinkTable& links() const { return ring_.links(); }
  int max_hops() const { return ring_.max_hops(); }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

 private:
  RingKernel ring_;
  std::uint64_t mask_;
};

/// Greedy XOR kernel (Kademlia/Kandy): candidates strictly reduce the XOR
/// distance to the key, scored by the reduction; the lookup ends at the
/// global XOR-closest node (the live one under faults). No second tier.
class XorKernel {
 public:
  using Score = std::uint64_t;
  static constexpr const char* kCounterPrefix = "xor_router";

  XorKernel(const OverlayNetwork& net, const LinkTable& links);

  const OverlayNetwork& net() const { return *net_; }
  const LinkTable& links() const { return *links_; }
  int max_hops() const { return max_hops_; }

  template <typename Pick, typename Ctx>
  Hop rank(const HopSite& site, NodeId key, std::uint64_t& state, Pick& pick,
           const Ctx& ctx) const;

  /// The live node minimizing XOR distance to `key`.
  NodeIndex live_closest(NodeId key, const FailureSet& dead) const;

 private:
  const OverlayNetwork* net_;
  const LinkTable* links_;
  std::uint64_t mask_;
  int max_hops_;
};

using RingRouter = GreedyRouter<RingKernel>;
using LookaheadRouter = GreedyRouter<LookaheadKernel>;
using XorRouter = GreedyRouter<XorKernel>;

extern template class GreedyRouter<RingKernel>;
extern template class GreedyRouter<LookaheadKernel>;
extern template class GreedyRouter<XorKernel>;

/// The hop guard of the one-stage kernels: generous, since every route in
/// a correct structure finishes in O(log n) hops.
inline int hop_guard(const OverlayNetwork& net) {
  return 4 * net.space().bits() + 16;
}

}  // namespace canon

#endif  // CANON_OVERLAY_ROUTING_H
