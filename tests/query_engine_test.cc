// The batch QueryEngine's contracts (overlay/query_engine.h):
//
// * thread-count invariance — workload generation and batch results
//   (QueryStats AND per-query terminals) are bit-identical at 1, 2 and 7
//   threads for every router family;
// * hot-path equivalence — route_into matches route() hop-for-hop and
//   reuses the caller's capacity; probe agrees with full routing on
//   terminal/hops/ok;
// * telemetry — counters flush aggregates only, after the merge barrier;
//   attaching a sink serializes the batch and replays faithful traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "canon/proximity.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace canon {
namespace {

constexpr int kThreadCounts[] = {1, 2, 7};

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

OverlayNetwork make_net(std::size_t n = 768, int levels = 3) {
  Rng rng(99);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 10;
  return make_population(spec, rng);
}

/// Deterministic synthetic per-hop cost (no physical topology needed).
HopCost synthetic_cost() {
  return [](std::uint32_t a, std::uint32_t b) {
    return static_cast<double>((a * 31 + b * 17) % 97 + 1);
  };
}

/// Bit-exact equality of every QueryStats field, including the float
/// moments (the determinism contract is byte-identity, not closeness).
void expect_stats_identical(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.hops_by_level, b.hops_by_level);
  EXPECT_EQ(a.hops.count(), b.hops.count());
  EXPECT_EQ(a.hops.sum(), b.hops.sum());
  EXPECT_EQ(a.cost.count(), b.cost.count());
  EXPECT_EQ(a.cost.sum(), b.cost.sum());
  if (a.hops.count() > 0 && b.hops.count() > 0) {
    EXPECT_EQ(a.hops.mean(), b.hops.mean());
    EXPECT_EQ(a.hops.min(), b.hops.min());
    EXPECT_EQ(a.hops.max(), b.hops.max());
    EXPECT_EQ(a.hops.variance(), b.hops.variance());
  }
  if (a.cost.count() > 0 && b.cost.count() > 0) {
    EXPECT_EQ(a.cost.mean(), b.cost.mean());
    EXPECT_EQ(a.cost.variance(), b.cost.variance());
  }
}

/// Runs `fn()` (returning {stats, per_query}) at every thread count and
/// asserts all results are identical to the serial ones.
template <typename RunFn>
void expect_thread_invariant(RunFn&& fn) {
  ThreadGuard guard;
  set_parallel_threads(1);
  std::vector<RouteProbe> base_pq;
  const QueryStats base = fn(&base_pq);
  EXPECT_GT(base.queries, 0u);
  for (const int threads : kThreadCounts) {
    set_parallel_threads(threads);
    std::vector<RouteProbe> pq;
    const QueryStats got = fn(&pq);
    expect_stats_identical(base, got);
    EXPECT_EQ(base_pq, pq) << "per-query results differ at threads="
                           << threads;
  }
}

TEST(Workload, GenerationIsThreadInvariant) {
  ThreadGuard guard;
  const auto net = make_net(512);
  set_parallel_threads(1);
  const auto serial = uniform_workload(net, 2000, Rng(7));
  for (const int threads : kThreadCounts) {
    set_parallel_threads(threads);
    EXPECT_EQ(serial, uniform_workload(net, 2000, Rng(7)));
  }
  // Each query comes from its own forked stream: prefix-stable under
  // workload growth.
  set_parallel_threads(0);
  const auto longer = uniform_workload(net, 3000, Rng(7));
  EXPECT_TRUE(std::equal(serial.begin(), serial.end(), longer.begin()));
}

TEST(QueryEngine, RingRouterIsThreadInvariant) {
  const auto net = make_net();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  QueryEngine engine(net);
  engine.set_level_tracking(true);
  const auto queries = uniform_workload(net, 3000, Rng(1));
  expect_thread_invariant([&](std::vector<RouteProbe>* pq) {
    return engine.run(queries, router, pq);
  });
}

TEST(QueryEngine, RingLookaheadIsThreadInvariant) {
  const auto net = make_net();
  const auto links = build_crescendo(net);
  const LookaheadRouter router(net, links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 2000, Rng(2));
  expect_thread_invariant([&](std::vector<RouteProbe>* pq) {
    return engine.run(queries, router, pq);
  });
}

TEST(QueryEngine, XorRouterIsThreadInvariant) {
  const auto net = make_net();
  Rng brng(3);
  const auto links = build_kandy(net);
  const XorRouter router(net, links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 2000, Rng(3));
  expect_thread_invariant([&](std::vector<RouteProbe>* pq) {
    return engine.run(queries, router, pq);
  });
}

TEST(QueryEngine, GroupRouterWithCostIsThreadInvariant) {
  const auto net = make_net();
  const auto groups = std::make_shared<const GroupedOverlay>(net);
  const HopCost cost = synthetic_cost();
  Rng brng(4);
  const auto links =
      build_chord_prox(net, *groups, cost, ProximityConfig{}, brng);
  const GroupRouter router(net, groups, links);
  QueryEngine engine(net);
  engine.set_cost(cost);  // float accumulation order must still be fixed
  const auto queries = uniform_workload(net, 2000, Rng(4));
  expect_thread_invariant([&](std::vector<RouteProbe>* pq) {
    return engine.run(queries, router, pq);
  });
}

TEST(QueryEngine, CanCanRouterIsThreadInvariant) {
  // The staged Can-Can kernel runs through the shared batch driver like
  // every other family: deterministic under fan-out.
  const auto net = make_net();
  const LinkTable links = build_cancan(net);
  const CanCanRouter router(net, std::make_shared<const CanCanZones>(net),
                            links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 1500, Rng(5));
  expect_thread_invariant([&](std::vector<RouteProbe>* pq) {
    return engine.run(queries, router, pq);
  });
}

TEST(RouteInto, MatchesRouteHopForHopAndReusesCapacity) {
  const auto net = make_net();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const LookaheadRouter lookahead(net, links);
  const auto queries = uniform_workload(net, 500, Rng(6));

  Route scratch;
  for (const Query& q : queries) {
    const Route fresh = router.route(q.from, q.key);
    router.route_into(q.from, q.key, scratch);
    EXPECT_EQ(fresh.path, scratch.path);
    EXPECT_EQ(fresh.ok, scratch.ok);

    Route fresh_la = lookahead.route(q.from, q.key);
    lookahead.route_into(q.from, q.key, scratch);
    EXPECT_EQ(fresh_la.path, scratch.path);
    EXPECT_EQ(fresh_la.ok, scratch.ok);
  }

  // After one pass the buffer has seen the workload's longest path; a
  // second pass must never reallocate.
  for (const Query& q : queries) router.route_into(q.from, q.key, scratch);
  const std::size_t settled = scratch.path.capacity();
  for (const Query& q : queries) {
    router.route_into(q.from, q.key, scratch);
    EXPECT_EQ(scratch.path.capacity(), settled);
  }
}

TEST(Probe, AgreesWithFullRoutingOn1kQueries) {
  const auto net = make_net(1024);
  const auto crescendo = build_crescendo(net);
  const RingRouter ring(net, crescendo);
  const LookaheadRouter lookahead(net, crescendo);
  Rng brng(8);
  const auto kandy = build_kandy(net);
  const XorRouter xr(net, kandy);
  const auto groups = std::make_shared<const GroupedOverlay>(net);
  Rng prng(9);
  const auto prox =
      build_chord_prox(net, *groups, synthetic_cost(), ProximityConfig{}, prng);
  const GroupRouter group(net, groups, prox);

  const auto queries = uniform_workload(net, 1000, Rng(8));
  for (const Query& q : queries) {
    const Route r1 = ring.route(q.from, q.key);
    EXPECT_EQ(ring.probe(q.from, q.key),
              (RouteProbe{r1.terminal(), r1.hops(), r1.ok}));
    const Route r2 = lookahead.route(q.from, q.key);
    EXPECT_EQ(lookahead.probe(q.from, q.key),
              (RouteProbe{r2.terminal(), r2.hops(), r2.ok}));
    const Route r3 = xr.route(q.from, q.key);
    EXPECT_EQ(xr.probe(q.from, q.key),
              (RouteProbe{r3.terminal(), r3.hops(), r3.ok}));
    const Route r4 = group.route(q.from, q.key);
    EXPECT_EQ(group.probe(q.from, q.key),
              (RouteProbe{r4.terminal(), r4.hops(), r4.ok}));
  }
}

TEST(QueryEngine, ProbeModeMatchesFullModeStats) {
  const auto net = make_net();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, 2000, Rng(10));

  const QueryEngine probe_engine(net);  // nothing needs paths: probe mode
  std::vector<RouteProbe> probe_pq;
  const QueryStats probed = probe_engine.run(queries, router, &probe_pq);

  QueryEngine full_engine(net);
  full_engine.set_level_tracking(true);  // forces route_into
  std::vector<RouteProbe> full_pq;
  const QueryStats full = full_engine.run(queries, router, &full_pq);

  EXPECT_EQ(probe_pq, full_pq);
  EXPECT_EQ(probed.total_hops, full.total_hops);
  EXPECT_EQ(probed.failures, full.failures);
  EXPECT_EQ(probed.hops.count(), full.hops.count());
  EXPECT_EQ(probed.hops.sum(), full.hops.sum());
  // Level tallies exist only in full mode, and account for every hop.
  EXPECT_TRUE(probed.hops_by_level.empty());
  std::uint64_t level_sum = 0;
  for (const std::uint64_t c : full.hops_by_level) level_sum += c;
  EXPECT_EQ(level_sum, full.total_hops);
}

TEST(QueryEngine, CountersFlushAggregatesOnly) {
  const auto net = make_net(512);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);

  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* prev = telemetry::install_registry(&registry);
  const QueryEngine engine(net);  // resolves counters while installed
  telemetry::install_registry(prev);

  const auto queries = uniform_workload(net, 1000, Rng(11));
  prev = telemetry::install_registry(&registry);
  const QueryStats stats = engine.run(queries, router);
  telemetry::install_registry(prev);

  EXPECT_EQ(registry.counters().at("query_engine.batches").value(), 1u);
  EXPECT_EQ(registry.counters().at("query_engine.queries").value(),
            stats.queries);
  EXPECT_EQ(registry.counters().at("query_engine.hops").value(),
            stats.total_hops);
  EXPECT_EQ(registry.counters().at("query_engine.failures").value(),
            stats.failures);
  // The hot paths never bump the router's own counters, and a healthy
  // batch registers no hop-guard counter.
  EXPECT_EQ(registry.counters().count("ring_router.routes"), 0u);
  EXPECT_EQ(stats.hop_guard_exits, 0u);
  EXPECT_EQ(registry.counters().count("query_engine.hop_guard_exits"), 0u);
}

TEST(QueryEngine, HopGuardExitsAreCountedApartFromFailures) {
  // A successor-only ring never dead-ends, but its long routes exceed the
  // 4*16+16 = 80-hop guard of a 16-bit space: every failure is a guard
  // exit, in every routing mode.
  PopulationSpec spec;
  spec.node_count = 256;
  spec.id_bits = 16;
  Rng rng(404);
  const auto net = make_population(spec, rng);
  const auto n = static_cast<NodeIndex>(net.size());
  const LinkTable links = LinkTable::build(
      net.ids(), [n](NodeIndex m, LinkRow& row) { row.push_back((m + 1) % n); });
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, 400, Rng(22));

  int route_failures = 0;
  for (const Query& q : queries) {
    const Route r = router.route(q.from, q.key);
    EXPECT_EQ(r.hop_guard, !r.ok);
    route_failures += r.ok ? 0 : 1;
  }
  ASSERT_GT(route_failures, 0);

  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* prev = telemetry::install_registry(&registry);
  QueryEngine engine(net);
  const int saved = probe_batch_width();
  std::uint64_t flushed = 0;
  for (const int width : {0, 16}) {  // scalar probe, then probe_batch
    set_probe_batch_width(width);
    const QueryStats stats = engine.run(queries, router);
    EXPECT_EQ(stats.failures, static_cast<std::uint64_t>(route_failures));
    EXPECT_EQ(stats.hop_guard_exits, stats.failures) << "width " << width;
    flushed += stats.hop_guard_exits;
  }
  set_probe_batch_width(saved);
  engine.set_level_tracking(true);  // full mode: route_into
  const QueryStats full = engine.run(queries, router);
  EXPECT_EQ(full.hop_guard_exits, full.failures);
  flushed += full.hop_guard_exits;
  telemetry::install_registry(prev);
  EXPECT_EQ(registry.counters().at("query_engine.hop_guard_exits").value(),
            flushed);
}

TEST(QueryEngine, SinkModeReplaysFaithfulTracesInWorkloadOrder) {
  ThreadGuard guard;
  set_parallel_threads(4);  // sink mode must serialize regardless
  const auto net = make_net(512);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, 200, Rng(12));

  QueryEngine engine(net);
  telemetry::RecordingTraceSink sink;
  engine.set_trace(&sink);
  const QueryStats stats = engine.run(queries, router);
  EXPECT_EQ(stats.queries, queries.size());
  ASSERT_EQ(sink.lookups().size(), queries.size());

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& trace = sink.lookups()[i];
    EXPECT_EQ(trace.from, queries[i].from);
    EXPECT_EQ(trace.key, queries[i].key);
    const Route r = router.route(queries[i].from, queries[i].key);
    EXPECT_TRUE(trace.done);
    EXPECT_EQ(trace.ok, r.ok);
    EXPECT_EQ(trace.terminal, r.terminal());
    ASSERT_EQ(trace.hops.size(), static_cast<std::size_t>(r.hops()));
    for (std::size_t j = 0; j < trace.hops.size(); ++j) {
      EXPECT_EQ(trace.hops[j].from, r.path[j]);
      EXPECT_EQ(trace.hops[j].to, r.path[j + 1]);
      EXPECT_EQ(trace.hops[j].hop_index, static_cast<int>(j));
      EXPECT_EQ(trace.hops[j].level,
                net.lca_level(r.path[j], r.path[j + 1]));
    }
  }
}

TEST(QueryStats, MergeHandlesEmptyAndGrowsLevels) {
  QueryStats a;
  QueryStats b;
  a.merge(b);  // empty ⊕ empty
  EXPECT_EQ(a.queries, 0u);
  EXPECT_EQ(a.hops.count(), 0u);
  EXPECT_TRUE(a.hops_by_level.empty());

  b.queries = 3;
  b.failures = 1;
  b.total_hops = 10;
  b.hops.add(4);
  b.hops.add(6);
  b.hops_by_level = {2, 8};
  a.merge(b);  // empty ⊕ full
  EXPECT_EQ(a.queries, 3u);
  EXPECT_EQ(a.ok(), 2u);
  EXPECT_EQ(a.hops.mean(), 5.0);
  EXPECT_EQ(a.hops_by_level, (std::vector<std::uint64_t>{2, 8}));

  QueryStats c;
  c.queries = 1;
  c.total_hops = 7;
  c.hops.add(7);
  c.hops_by_level = {1, 2, 4};  // deeper than a's
  a.merge(c);
  EXPECT_EQ(a.queries, 4u);
  EXPECT_EQ(a.total_hops, 17u);
  EXPECT_EQ(a.hops_by_level, (std::vector<std::uint64_t>{3, 10, 4}));
  EXPECT_EQ(a.hops.max(), 7.0);
}

}  // namespace
}  // namespace canon
