// Batch query engine: the lookup-phase counterpart of the parallel
// construction pipeline (docs/PERFORMANCE.md).
//
// The evaluation fires 10^3..10^5 lookups per (nodes, levels) cell. The
// engine runs such a workload in three deterministic steps:
//
//   1. The workload itself is pre-generated from forked RNG streams:
//      query i draws from base.fork(i), so the (from, key) array is a pure
//      function of (network, seed) at every thread count.
//   2. Routing fans out over fixed shards of kQueryGrain queries via
//      parallel_for on a shared *read-only* router, using the
//      allocation-free hot paths (route_into reusing one scratch Route per
//      shard, or the probe_batch kernel when nobody needs paths).
//   3. Results accumulate into per-shard stats merged in fixed shard
//      order 0..S-1 after the barrier — float summation order is therefore
//      identical at every thread count, making every derived figure
//      byte-identical serial vs. parallel.
//
// Every entry point (run, run_resilient, run_resilient_with) runs through
// one private function, drive(), over any GreedyRouter (overlay/routing.h)
// — greedy, lookahead, XOR, proximity, CAN or Can-Can alike. A batch in
// which no node is dead and no message drops takes the plain walk, so
// run_resilient with an empty FaultPlan is run() by construction; only a
// faulty batch takes the router's failure-aware walk.
//
// Telemetry contract: the hot paths touch no telemetry (see
// overlay/routing.h). The engine tallies hops/failures into per-shard
// scratch and flushes the aggregate to the `query_engine.*` counters on
// the calling thread after the merge; a plain telemetry::Counter is never
// shared across shards. The engine is where routes are traced: attaching
// a trace sink (set_trace) replays every routed path into it and forces
// the whole batch onto one thread, since a sink observes a global event
// order.
#ifndef CANON_OVERLAY_QUERY_ENGINE_H
#define CANON_OVERLAY_QUERY_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "overlay/fault_plan.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "telemetry/load_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace canon {

// struct Query lives in overlay/routing.h (included above) so the
// routers' probe_batch entry points can name it without a cycle.

/// Pre-generates `count` queries, query i drawn from `base.fork(i)` by
/// `make(rng, i)`. Parallelized over fixed shards; the result depends only
/// on (base, make), never on the thread count.
std::vector<Query> generate_workload(
    std::size_t count, const Rng& base,
    const std::function<Query(Rng&, std::size_t)>& make);

/// The standard uniform workload: source uniform over nodes, key uniform
/// over the ID space (the draw order within each forked stream matches the
/// figure benches: source first, then key).
std::vector<Query> uniform_workload(const OverlayNetwork& net,
                                    std::size_t count, const Rng& base);

/// Hot-key workload: source uniform over nodes, key drawn Zipf(theta) from
/// a fixed pool of one key per node whose rank order and values derive
/// from `base` — rank 0 is the hottest key. Like uniform_workload the
/// result is a pure function of (net, count, base, theta), byte-identical
/// at every thread count.
std::vector<Query> zipf_workload(const OverlayNetwork& net, std::size_t count,
                                 const Rng& base, double theta = 1.25);

/// Aggregated outcome of one batch. Mirrors what the serial benches
/// accumulated by hand: `hops` and `cost` summarize OK queries only
/// (failed routes historically never entered the figure Summaries), while
/// `total_hops` / `hops_by_level` count every hop taken, so
/// sum(hops_by_level) == total_hops whenever level tracking is on.
struct QueryStats {
  Summary hops;  ///< hop count per OK query
  Summary cost;  ///< path cost per OK query (iff a HopCost is set)
  std::vector<std::uint64_t> hops_by_level;  ///< index l = hops at LCA depth l
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  /// Failures that stopped at the router's hop guard — a structurally
  /// broken table rather than a dead end (a subset of `failures`).
  std::uint64_t hop_guard_exits = 0;
  std::uint64_t total_hops = 0;

  std::uint64_t ok() const { return queries - failures; }

  /// Folds `other` in; shard merging calls this in fixed shard order.
  void merge(const QueryStats& other);
};

/// Outcome of one resilient batch: the plain QueryStats over attempted
/// queries (dead sources are skipped, not failed — they never entered the
/// network) plus the recovery-work tallies. With an empty FaultPlan,
/// `base` is what run() returns on the same workload.
struct ResilientStats {
  QueryStats base;  ///< attempted queries only
  std::uint64_t skipped_dead_source = 0;
  std::uint64_t retries = 0;        ///< dropped forwarding attempts retried
  /// Hops not taken to the candidate the kernel ranks first with nothing
  /// skipped (docs/RESILIENCE.md "Fallback hops").
  std::uint64_t fallback_hops = 0;

  std::uint64_t attempted() const { return base.queries; }

  /// ok / attempted (1.0 on an empty batch).
  double success_rate() const;

  /// ok / (attempted + skipped): a dead source counts against
  /// availability even though it never issued the query.
  double availability() const;

  /// Tallies one attempted query.
  void add(const ResilientProbe& rp);

  /// Folds `other` in; shard merging calls this in fixed shard order.
  void merge(const ResilientStats& other);
};

/// Queries per shard: one lookup costs ~1µs at 64K nodes, so 256 amortize
/// the shard claim while a 4000-trial cell still yields ~16 shards. The
/// shard partition is a pure function of the workload size, never of the
/// thread count.
inline constexpr std::size_t kQueryGrain = 256;

/// See the file comment. One engine per overlay; routers are passed per
/// run() call and only read.
class QueryEngine {
 public:
  explicit QueryEngine(const OverlayNetwork& net);

  /// Adds per-query path cost to QueryStats::cost (disables probe mode:
  /// costs need the hop-by-hop path). Pass nullptr to clear.
  void set_cost(HopCost cost) { cost_ = std::move(cost); }

  /// Tallies hops by the LCA depth of their endpoints into
  /// QueryStats::hops_by_level (disables probe mode).
  void set_level_tracking(bool on) { level_tracking_ = on; }

  /// Attaches a sink receiving the begin/on_hop/end event stream for
  /// every query. Forces the batch onto the calling thread in workload
  /// order (disables probe mode). Each HopRecord carries from/to/
  /// hop_index/level and, as `candidates`, the out-degree of `from` in the
  /// router's link table. nullptr detaches.
  void set_trace(telemetry::RecordingTraceSink* sink) { sink_ = sink; }

  /// Attaches a load accountant (telemetry/load_stats.h): every routed
  /// query's path is tallied into per-shard scratch and merged into the
  /// accountant in fixed shard order after the batch — load reports are
  /// therefore byte-identical at every thread count. Disables probe mode
  /// (accounting needs the hop-by-hop path). nullptr detaches.
  void set_load(telemetry::LoadAccountant* load) { load_ = load; }

  /// Runs the batch through a GreedyRouter (overlay/routing.h). When
  /// `per_query` is given it receives one RouteProbe per query, in
  /// workload order. Probe mode routes whole shards through the router's
  /// interleaved batch kernel.
  template <typename Router>
  QueryStats run(std::span<const Query> queries, const Router& router,
                 std::vector<RouteProbe>* per_query = nullptr) const {
    return drive(queries, router, nullptr, FaultPlan{}, per_query).base;
  }

  /// The resilient batch mode: materializes `plan` once and runs the
  /// batch. Dead-source queries are skipped (per_query gets {from, 0,
  /// false}); the rest walk the GreedyRouter's failure-aware path, each attempted
  /// query i drawing its drops from plan.drop_seed() forked by i, so
  /// results — like the plain batch's — are byte-identical at every
  /// thread count. A plan that kills nobody and drops nothing is the plain
  /// batch (see drive()). The query_engine.resilient_* counters are
  /// flushed only for a non-empty plan, keeping empty-plan reports
  /// byte-identical to run()'s.
  template <typename Router>
  ResilientStats run_resilient(std::span<const Query> queries,
                               const Router& router, const FaultPlan& plan,
                               std::vector<RouteProbe>* per_query =
                                   nullptr) const {
    const FailureSet dead = plan.materialize(*net_);
    return drive(queries, router, &dead, plan, per_query);
  }

  /// Same, over an already-materialized FailureSet (callers that audit or
  /// journal the dead set themselves).
  template <typename Router>
  ResilientStats run_resilient_with(std::span<const Query> queries,
                                    const Router& router,
                                    const FailureSet& dead,
                                    const FaultPlan& plan,
                                    std::vector<RouteProbe>* per_query =
                                        nullptr) const {
    return drive(queries, router, &dead, plan, per_query);
  }

 private:
  /// The one shard loop behind every entry point. A batch is faulty iff
  /// `dead` is given and either holds a dead node or `plan` drops
  /// messages; only then does it skip dead sources and take the
  /// failure-aware walk. Otherwise it is the plain batch, whatever entry
  /// point it came from. Probe mode (no path recorded at all) is used iff
  /// nothing needs paths: no cost fn, no level tracking, no sink, no load
  /// accountant; a plain probe-mode shard runs through the router's
  /// interleaved batch kernel, which writes exactly probe() per query, and
  /// a plain full-mode shard through route_into.
  template <typename Router>
  ResilientStats drive(std::span<const Query> queries, const Router& router,
                       const FailureSet* dead, const FaultPlan& plan,
                       std::vector<RouteProbe>* per_query) const {
    const std::size_t n = queries.size();
    const std::size_t shards = (n + kQueryGrain - 1) / kQueryGrain;
    if (per_query) per_query->assign(n, RouteProbe{});
    const bool use_probe =
        !cost_ && !level_tracking_ && sink_ == nullptr && load_ == nullptr;
    const bool faulty =
        dead != nullptr && (dead->any() || plan.has_drops());
    const Rng drop_base(plan.drop_seed());
    const LinkTable& links = router.kernel().links();

    std::vector<ResilientStats> per_shard(shards);
    std::vector<telemetry::LoadAccountant::Shard> load_shards(
        load_ ? shards : 0);
    // Per-shard scratch footprint, recorded by the worker that ran the
    // shard (the shard's routes alone determine the final capacity) and
    // charged to the memory accountant on the calling thread after the
    // barrier, in fixed shard order.
    std::vector<std::uint64_t> scratch_bytes(
        telemetry::mem_accountant() ? shards : 0);
    const auto run_shard = [&](std::size_t s) {
      ResilientStats& stats = per_shard[s];
      telemetry::LoadAccountant::Shard* load_shard =
          load_ ? &load_shards[s] : nullptr;
      Route route;  // one buffer per shard, capacity reused across queries
      std::vector<RouteProbe> batch_out;
      const std::size_t begin = s * kQueryGrain;
      const std::size_t end = std::min(n, begin + kQueryGrain);
      const auto record = [&](std::size_t i, const ResilientProbe& rp) {
        stats.add(rp);
        if (per_query) (*per_query)[i] = rp.to_probe();
      };
      if (faulty) {
        typename Router::Scratch scratch;
        for (std::size_t i = begin; i < end; ++i) {
          const Query& q = queries[i];
          if (dead->dead(q.from)) {
            ++stats.skipped_dead_source;
            if (per_query) (*per_query)[i] = RouteProbe{q.from, 0, false};
            continue;
          }
          DropRoller drops(plan.drop_probability(), drop_base.fork(i));
          ResilientProbe rp;
          if (use_probe) {
            rp = router.probe(q.from, q.key, *dead, drops, scratch);
          } else {
            rp = router.route_into(q.from, q.key, *dead, drops, scratch,
                                   route);
            observe_route(q, route, links, stats.base, load_shard);
          }
          record(i, rp);
        }
      } else {
        // The interleaved kernel routes the whole shard up front; the loop
        // below then drains its results in query order, so every
        // accumulation (and with it every figure) is identical to the
        // per-query path.
        if (use_probe) {
          batch_out.resize(end - begin);
          router.probe_batch(queries.subspan(begin, end - begin), batch_out);
        }
        for (std::size_t i = begin; i < end; ++i) {
          const Query& q = queries[i];
          RouteProbe p;
          if (use_probe) {
            p = batch_out[i - begin];
          } else {
            router.route_into(q.from, q.key, route);
            p = RouteProbe{route.terminal(), route.hops(), route.ok,
                           route.hop_guard};
            observe_route(q, route, links, stats.base, load_shard);
          }
          record(i, ResilientProbe{p.terminal, p.hops, p.ok, 0, 0,
                                   p.hop_guard});
        }
      }
      if (!scratch_bytes.empty()) {
        scratch_bytes[s] = telemetry::vector_bytes(route.path) +
                           telemetry::vector_bytes(batch_out);
      }
    };

    if (sink_) {
      // A sink observes one global event stream: keep workload order.
      for (std::size_t s = 0; s < shards; ++s) run_shard(s);
    } else {
      // grain 1: shard s of the index range IS query-shard s, so the
      // partition (and with it every accumulation order below) is the same
      // at every thread count.
      parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) run_shard(s);
      });
    }

    ResilientStats out;
    for (const ResilientStats& s : per_shard) out.merge(s);
    if (load_) {
      for (const auto& s : load_shards) load_->merge(s);
    }
    if (!scratch_bytes.empty()) {
      // Charge every shard's scratch together, then release: the tag's
      // peak records the concurrency-equivalent footprint (all shards
      // resident at once), a pure function of the shard partition and so
      // byte-identical at any --threads.
      telemetry::MemScope scope("query.scratch");
      for (const std::uint64_t bytes : scratch_bytes) scope.add(bytes);
    }
    flush_batch_counters(out.base);
    if (!plan.empty()) flush_resilient_counters(out);
    return out;
  }

  /// The path-dependent tallies of full (non-probe) mode: level tracking,
  /// path cost, trace replay (each hop's `candidates` is the out-degree
  /// of its `from` node in `links`), load accounting (into `load_shard`
  /// when a LoadAccountant is attached).
  void observe_route(const Query& q, const Route& route,
                     const LinkTable& links, QueryStats& stats,
                     telemetry::LoadAccountant::Shard* load_shard) const;

  /// Post-merge flush of the query_engine.{batches,queries,hops,failures}
  /// counters, on the calling thread; query_engine.hop_guard_exits is
  /// looked up lazily and bumped only when non-zero, so healthy reports
  /// never carry it.
  void flush_batch_counters(const QueryStats& stats) const;

  /// Post-merge flush of the query_engine.resilient_* counters. Looked up
  /// lazily so the names never register — and never surface in metric
  /// reports — unless a faulty batch actually ran.
  void flush_resilient_counters(const ResilientStats& stats) const;

  const OverlayNetwork* net_;
  HopCost cost_;
  bool level_tracking_ = false;
  telemetry::RecordingTraceSink* sink_ = nullptr;
  telemetry::LoadAccountant* load_ = nullptr;
  telemetry::Counter* batches_counter_;
  telemetry::Counter* queries_counter_;
  telemetry::Counter* hops_counter_;
  telemetry::Counter* failures_counter_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_QUERY_ENGINE_H
