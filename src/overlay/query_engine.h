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
//      shard, or probe() when nobody needs paths).
//   3. Results accumulate into per-shard QueryStats merged in fixed shard
//      order 0..S-1 after the barrier — float summation order is therefore
//      identical at every thread count, making every derived figure
//      byte-identical serial vs. parallel.
//
// Telemetry contract: the hot paths touch no telemetry (see
// overlay/routing.h). The engine tallies hops/failures into per-shard
// scratch and flushes the aggregate to the `query_engine.*` counters on
// the calling thread after the merge; a plain telemetry::Counter is never
// shared across shards. Attaching a trace sink (set_trace) forces the
// whole batch onto one thread, since sinks observe a global event order.
#ifndef CANON_OVERLAY_QUERY_ENGINE_H
#define CANON_OVERLAY_QUERY_ENGINE_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include <algorithm>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "overlay/fault_plan.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "telemetry/load_stats.h"
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
/// a fixed pool of `key_pool` keys (default: one per node) whose rank
/// order and values derive from `base` — rank 0 is the hottest key. Like
/// uniform_workload the result is a pure function of (net, count, base,
/// theta, key_pool), byte-identical at every thread count.
std::vector<Query> zipf_workload(const OverlayNetwork& net, std::size_t count,
                                 const Rng& base, double theta = 1.25,
                                 std::size_t key_pool = 0);

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
/// `base` is field-identical to what run() returns on the same workload.
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

  /// Folds `other` in; shard merging calls this in fixed shard order.
  void merge(const ResilientStats& other);
};

/// Queries per shard: one lookup costs ~1µs at 64K nodes, so 256 amortize
/// the shard claim while a 4000-trial cell still yields ~16 shards. The
/// compile-time default behind the runtime knob below.
inline constexpr std::size_t kQueryGrain = 256;

/// Process-wide queries-per-shard knob (the benches' --grain flag).
/// Returns kQueryGrain until set; set_query_grain(0) resets to the
/// default, other values clamp to >= 1. The shard partition is a pure
/// function of (workload size, grain) — never of the thread count — so
/// any fixed grain yields byte-identical figures at every --threads;
/// different grains may legitimately differ in float-summation order.
std::size_t query_grain();
void set_query_grain(std::size_t grain);

/// Everything one batch run depends on besides (workload, router), in one
/// bag: the three execution knobs every bench used to push through three
/// process-wide setters (--threads / --grain / --batch-width), plus the
/// per-run fault plan and trace sink that previously rode as extra
/// parameters and engine setters. bench::BenchRun builds one from the
/// standard flags (run_options()); engine overloads taking a RunOptions
/// apply the knobs and install the sinks for that call only.
struct RunOptions {
  /// Worker threads (set_parallel_threads semantics: 0 = hardware
  /// concurrency, 1 = the exact serial path).
  int threads = 0;
  /// Queries per shard (set_query_grain semantics: 0 = kQueryGrain).
  std::size_t grain = 0;
  /// Interleaved probe-kernel width (set_probe_batch_width semantics:
  /// 0 = scalar path).
  int batch_width = kDefaultProbeBatchWidth;
  /// Crash/drop schedule for resilient runs; null = fault-free (a
  /// RunOptions-taking run_resilient then matches run() field-for-field).
  /// Borrowed.
  const FaultPlan* fault_plan = nullptr;
  /// Trace sink installed for the duration of the call (forces the batch
  /// onto one thread, like QueryEngine::set_trace). Borrowed.
  telemetry::RouteTraceSink* trace = nullptr;

  /// Installs the three process-wide execution knobs.
  void apply() const;
};

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

  /// Attaches a sink receiving the familiar begin/on_hop/end event stream
  /// for every query. Forces the batch onto the calling thread in workload
  /// order. Engine-emitted HopRecords carry from/to/hop_index/level;
  /// `candidates` is left 0 (the engine has no link table — use a router's
  /// own set_trace for candidate counts). nullptr detaches.
  void set_trace(telemetry::RouteTraceSink* sink) { sink_ = sink; }

  /// Attaches an event journal: run_resilient records every crash/revive
  /// its FaultPlan materializes (before any query routes). nullptr
  /// detaches.
  void set_journal(telemetry::EventJournal* journal) { journal_ = journal; }

  /// Attaches a load accountant (telemetry/load_stats.h): every routed
  /// query's path is tallied into per-shard scratch and merged into the
  /// accountant in fixed shard order after the batch — load reports are
  /// therefore byte-identical at every thread count. Disables probe mode
  /// (accounting needs the hop-by-hop path). nullptr detaches.
  void set_load(telemetry::LoadAccountant* load) { load_ = load; }

  /// Routes one query into the caller's buffer; must be safe to call
  /// concurrently on shared state (the hot-path contract).
  using RouteIntoFn =
      std::function<void(NodeIndex, NodeId, Route&)>;
  /// Terminal-only variant.
  using ProbeFn = std::function<RouteProbe(NodeIndex, NodeId)>;
  /// Whole-shard terminal-only variant: the router's interleaved batch
  /// kernel (probe_batch), one result per query.
  using ProbeBatchFn =
      std::function<void(std::span<const Query>, std::span<RouteProbe>)>;

  /// Runs the batch through a GreedyRouter (overlay/routing.h). When
  /// `per_query` is given it receives one RouteProbe per query, in
  /// workload order. Probe mode routes whole shards through the router's
  /// interleaved batch kernel.
  template <typename Router>
  QueryStats run(std::span<const Query> queries, const Router& router,
                 std::vector<RouteProbe>* per_query = nullptr) const {
    return run_batch(
        queries,
        [&router](NodeIndex from, NodeId key, Route& out) {
          router.route_into(from, key, out);
        },
        [&router](NodeIndex from, NodeId key) {
          return router.probe(from, key);
        },
        per_query,
        [&router](std::span<const Query> q, std::span<RouteProbe> o) {
          router.probe_batch(q, o);
        });
  }

  /// run() under a RunOptions bag: applies the execution knobs, installs
  /// opts.trace for the duration of the call (restoring the previously
  /// attached sink after), and runs the plain batch. opts.fault_plan is
  /// ignored here — use the run_resilient overload for faulty runs.
  template <typename Router>
  QueryStats run(std::span<const Query> queries, const Router& router,
                 const RunOptions& opts,
                 std::vector<RouteProbe>* per_query = nullptr) {
    opts.apply();
    const SinkGuard guard(this, opts.trace);
    return run(queries, router, per_query);
  }

  /// run_resilient() under a RunOptions bag; a null opts.fault_plan runs
  /// fault-free (empty plan).
  template <typename RRouter>
  ResilientStats run_resilient(std::span<const Query> queries,
                               const RRouter& router, const RunOptions& opts,
                               std::vector<RouteProbe>* per_query = nullptr) {
    opts.apply();
    const SinkGuard guard(this, opts.trace);
    static const FaultPlan kNoFaults;
    return run_resilient(queries, router,
                         opts.fault_plan ? *opts.fault_plan : kNoFaults,
                         per_query);
  }

  /// Same, through RingRouter's lookahead variant.
  QueryStats run_lookahead(std::span<const Query> queries,
                           const RingRouter& router,
                           std::vector<RouteProbe>* per_query = nullptr) const {
    return run_batch(
        queries,
        [&router](NodeIndex from, NodeId key, Route& out) {
          router.route_lookahead_into(from, key, out);
        },
        [&router](NodeIndex from, NodeId key) {
          return router.probe_lookahead(from, key);
        },
        per_query);
  }

  /// The generic core. Probe mode (no path recorded at all) is used iff
  /// nothing needs paths: no cost fn, no level tracking, no sink, no load
  /// accountant. In probe mode a non-null `probe_batch` handles whole
  /// shards at once (the interleaved kernels); it must write
  /// out[i] == probe(queries[i].from, queries[i].key) for every i.
  QueryStats run_batch(std::span<const Query> queries,
                       const RouteIntoFn& route_into, const ProbeFn& probe,
                       std::vector<RouteProbe>* per_query = nullptr,
                       const ProbeBatchFn& probe_batch = {}) const;

  /// The resilient batch mode: materializes `plan` once (journaling its
  /// crash/revive events when a journal is attached) and runs the batch
  /// through a GreedyRouter's failure-aware walk. Dead-source queries
  /// are skipped (per_query gets {from, 0, false}); each attempted query i
  /// derives its drop stream from plan.drop_seed() forked by i, so
  /// results — like the plain batch's — are byte-identical at every
  /// thread count. The
  /// query_engine.resilient_* counters are flushed only for a non-empty
  /// plan, keeping empty-plan reports byte-identical to run()'s.
  template <typename RRouter>
  ResilientStats run_resilient(std::span<const Query> queries,
                               const RRouter& router, const FaultPlan& plan,
                               std::vector<RouteProbe>* per_query =
                                   nullptr) const {
    const FailureSet dead = plan.materialize(*net_, journal_);
    return run_resilient_with(queries, router, dead, plan, per_query);
  }

  /// Same, over an already-materialized FailureSet (callers that audit or
  /// journal the dead set themselves).
  template <typename RRouter>
  ResilientStats run_resilient_with(std::span<const Query> queries,
                                    const RRouter& router,
                                    const FailureSet& dead,
                                    const FaultPlan& plan,
                                    std::vector<RouteProbe>* per_query =
                                        nullptr) const {
    const std::size_t n = queries.size();
    const std::size_t grain = query_grain();
    const std::size_t shards = (n + grain - 1) / grain;
    if (per_query) per_query->assign(n, RouteProbe{});
    const bool use_probe =
        !cost_ && !level_tracking_ && sink_ == nullptr && load_ == nullptr;
    const Rng drop_base(plan.drop_seed());
    const double drop_p = plan.drop_probability();

    std::vector<ResilientStats> per_shard(shards);
    std::vector<telemetry::LoadAccountant::Shard> load_shards(
        load_ ? shards : 0);
    const auto run_shard = [&](std::size_t s) {
      ResilientStats& stats = per_shard[s];
      telemetry::LoadAccountant::Shard* load_shard =
          load_ ? &load_shards[s] : nullptr;
      Route route_scratch;  // per-shard buffers, capacity reused
      typename RRouter::Scratch scratch;
      const std::size_t begin = s * grain;
      const std::size_t end = std::min(n, begin + grain);
      for (std::size_t i = begin; i < end; ++i) {
        const Query& q = queries[i];
        if (dead.dead(q.from)) {
          ++stats.skipped_dead_source;
          if (per_query) (*per_query)[i] = RouteProbe{q.from, 0, false};
          continue;
        }
        DropRoller drops(drop_p, drop_base.fork(i));
        ResilientProbe rp;
        if (use_probe) {
          rp = router.probe(q.from, q.key, dead, drops, scratch);
        } else {
          rp = router.route_into(q.from, q.key, dead, drops, scratch,
                                 route_scratch);
          observe_route(q, route_scratch, stats.base, load_shard);
        }
        ++stats.base.queries;
        stats.base.total_hops += static_cast<std::uint64_t>(rp.hops);
        if (rp.ok) {
          stats.base.hops.add(rp.hops);
        } else {
          ++stats.base.failures;
        }
        if (rp.hop_guard) ++stats.base.hop_guard_exits;
        stats.retries += static_cast<std::uint64_t>(rp.retries);
        stats.fallback_hops += static_cast<std::uint64_t>(rp.fallback_hops);
        if (per_query) (*per_query)[i] = rp.to_probe();
      }
    };

    if (sink_) {
      for (std::size_t s = 0; s < shards; ++s) run_shard(s);
    } else {
      parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) run_shard(s);
      });
    }

    ResilientStats out;
    for (const ResilientStats& s : per_shard) out.merge(s);
    if (load_) {
      for (const auto& s : load_shards) load_->merge(s);
    }
    flush_batch_counters(out.base);
    if (!plan.empty()) flush_resilient_counters(out);
    return out;
  }

 private:
  /// Installs a RunOptions trace sink for one call, restoring the
  /// previously attached sink on scope exit (a null options trace leaves
  /// the attached sink in place).
  struct SinkGuard {
    QueryEngine* engine;
    telemetry::RouteTraceSink* prev;
    SinkGuard(QueryEngine* e, telemetry::RouteTraceSink* trace)
        : engine(e), prev(e->sink_) {
      if (trace) e->sink_ = trace;
    }
    ~SinkGuard() { engine->sink_ = prev; }
    SinkGuard(const SinkGuard&) = delete;
    SinkGuard& operator=(const SinkGuard&) = delete;
  };

  /// The path-dependent tallies of full (non-probe) mode: level tracking,
  /// path cost, trace replay, load accounting (into `load_shard` when a
  /// LoadAccountant is attached). Shared by run_batch and
  /// run_resilient_with.
  void observe_route(const Query& q, const Route& route, QueryStats& stats,
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
  telemetry::RouteTraceSink* sink_ = nullptr;
  telemetry::EventJournal* journal_ = nullptr;
  telemetry::LoadAccountant* load_ = nullptr;
  telemetry::Counter* batches_counter_;
  telemetry::Counter* queries_counter_;
  telemetry::Counter* hops_counter_;
  telemetry::Counter* failures_counter_;
};

}  // namespace canon

#endif  // CANON_OVERLAY_QUERY_ENGINE_H
