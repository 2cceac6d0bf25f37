// The interleaved batch probe driver (overlay/batch_probe.h, behind
// every GreedyRouter's probe_batch):
//
// * equivalence — probe_batch matches the per-call probe loop
//   hop-for-hop and terminal-for-terminal, for every family in the
//   registry, at every batch width (the kernels change when memory is
//   touched, never which neighbor wins);
// * width invariance — widths {1, 4, 8, 16} and the width-0 scalar
//   fallback all produce bit-identical stats and per-query results;
// * thread invariance — the width knob composes with the engine's shard
//   fan-out: {1, 2, 7} threads x every width stay bit-identical;
// * at scale (NDEBUG builds) — a 2^18-node streamed build pins
//   batch == scalar on a DRAM-resident structure, where a prefetch-kernel
//   bug would actually pay off in divergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "canon/proximity.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

namespace canon {
namespace {

constexpr int kWidths[] = {1, 4, 8, 16};
constexpr int kThreadCounts[] = {1, 2, 7};

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

/// Restores the process-wide batch width (tests poke it per-case).
struct WidthGuard {
  int saved = probe_batch_width();
  ~WidthGuard() { set_probe_batch_width(saved); }
};

OverlayNetwork make_net(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  return make_population(spec, rng);
}

/// Bit-exact equality of every QueryStats field (the contract is
/// byte-identity, not closeness).
void expect_stats_identical(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.hops_by_level, b.hops_by_level);
  EXPECT_EQ(a.hops.count(), b.hops.count());
  EXPECT_EQ(a.hops.sum(), b.hops.sum());
  if (a.hops.count() > 0 && b.hops.count() > 0) {
    EXPECT_EQ(a.hops.mean(), b.hops.mean());
    EXPECT_EQ(a.hops.min(), b.hops.min());
    EXPECT_EQ(a.hops.max(), b.hops.max());
    EXPECT_EQ(a.hops.variance(), b.hops.variance());
  }
}

/// probe_batch output vs the per-call probe loop on the same router, at
/// every width plus the width-0 fallback.
template <typename Router>
void expect_kernel_matches_probe(const Router& router,
                                 const std::vector<Query>& queries,
                                 const char* what) {
  WidthGuard guard;
  std::vector<RouteProbe> ref(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ref[i] = router.probe(queries[i].from, queries[i].key);
  }
  std::vector<RouteProbe> out(queries.size());
  set_probe_batch_width(0);  // the scalar fallback must also agree
  router.probe_batch(queries, out);
  EXPECT_EQ(ref, out) << what << " scalar fallback";
  for (const int width : kWidths) {
    set_probe_batch_width(width);
    router.probe_batch(queries, out);
    EXPECT_EQ(ref, out) << what << " width " << width;
  }
}

// ---------------------------------------------------------------------------
// Direct kernel tests: one per probe_batch overload.

TEST(BatchProbe, RingKernelMatchesPerCallProbe) {
  const auto net = make_net(1u << 12, 17);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, 1200, Rng(5));
  expect_kernel_matches_probe(router, queries, "ring");
}

TEST(BatchProbe, XorKernelMatchesPerCallProbe) {
  const auto net = make_net(1u << 12, 18);
  Rng rng(23);
  const auto links = build_kandy(net);
  const XorRouter router(net, links);
  const auto queries = uniform_workload(net, 1200, Rng(6));
  expect_kernel_matches_probe(router, queries, "xor");
}

TEST(BatchProbe, GroupKernelMatchesPerCallProbe) {
  const auto net = make_net(1u << 12, 19);
  const auto links = registry::build_family(net, "crescendo_prox", 19);
  const auto groups = std::make_shared<const GroupedOverlay>(net);
  const GroupRouter router(net, groups, links);
  const auto queries = uniform_workload(net, 1200, Rng(7));
  expect_kernel_matches_probe(router, queries, "group");
}

TEST(BatchProbe, MismatchedSpansThrow) {
  const auto net = make_net(512, 20);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, 8, Rng(8));
  std::vector<RouteProbe> short_out(queries.size() - 1);
  EXPECT_THROW(router.probe_batch(queries, short_out),
               std::invalid_argument);
}

TEST(BatchProbe, WidthKnobClampsAndRestores) {
  WidthGuard guard;
  set_probe_batch_width(1000);
  EXPECT_EQ(probe_batch_width(), kMaxProbeBatchWidth);
  set_probe_batch_width(-3);
  EXPECT_EQ(probe_batch_width(), 0);
  set_probe_batch_width(kDefaultProbeBatchWidth);
  EXPECT_EQ(probe_batch_width(), kDefaultProbeBatchWidth);
}

// ---------------------------------------------------------------------------
// Registry sweep: every family, every width, three seeds. Every family's
// kernel runs the interleaved driver through the engine; the width knob
// must never move a single per-query result.

TEST(BatchProbe, AllFamiliesMatchScalarAtEveryWidth) {
  WidthGuard guard;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = make_net(1u << 12, seed);
    const QueryEngine engine(net);
    const auto queries = uniform_workload(net, 600, Rng(seed + 100));
    for (const auto& entry : registry::families()) {
      const auto links = registry::build_family(net, entry.name, seed);
      const auto router = entry.make_router(net, links);
      set_probe_batch_width(0);
      std::vector<RouteProbe> ref_pq;
      const QueryStats ref = router.run(engine, queries, &ref_pq);
      ASSERT_EQ(ref_pq.size(), queries.size());
      for (const int width : kWidths) {
        set_probe_batch_width(width);
        std::vector<RouteProbe> pq;
        const QueryStats got = router.run(engine, queries, &pq);
        expect_stats_identical(ref, got);
        EXPECT_EQ(ref_pq, pq)
            << entry.name << " seed " << seed << " width " << width;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The width knob composes with the engine's shard fan-out: threads x
// widths all bit-identical to the serial scalar run.

TEST(BatchProbe, ThreadAndWidthInvariantThroughEngine) {
  ThreadGuard threads_guard;
  WidthGuard width_guard;
  const auto net = make_net(1u << 12, 21);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 3000, Rng(9));

  set_parallel_threads(1);
  set_probe_batch_width(0);
  std::vector<RouteProbe> ref_pq;
  const QueryStats ref = engine.run(queries, router, &ref_pq);
  EXPECT_GT(ref.queries, 0u);

  for (const int threads : kThreadCounts) {
    for (const int width : kWidths) {
      set_parallel_threads(threads);
      set_probe_batch_width(width);
      std::vector<RouteProbe> pq;
      const QueryStats got = engine.run(queries, router, &pq);
      expect_stats_identical(ref, got);
      EXPECT_EQ(ref_pq, pq)
          << "threads " << threads << " width " << width;
    }
  }
}

// ---------------------------------------------------------------------------
// At scale: a streamed 2^18-node build (the mega-scale construction path)
// with a DRAM-resident CSR, where the prefetch window actually overlaps
// misses. Debug builds drop to 2^14 so sanitizer jobs stay fast.

TEST(BatchProbe, StreamedBuildBatchMatchesScalarAtScale) {
#ifdef NDEBUG
  constexpr std::size_t kNodes = std::size_t{1} << 18;
  constexpr std::size_t kLookups = 20000;
#else
  constexpr std::size_t kNodes = std::size_t{1} << 14;
  constexpr std::size_t kLookups = 4000;
#endif
  WidthGuard guard;
  const auto net = make_net(kNodes, 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, kLookups, Rng(3));

  set_probe_batch_width(0);
  std::vector<RouteProbe> ref_pq;
  const QueryStats ref = engine.run(queries, router, &ref_pq);
  EXPECT_EQ(ref.failures, 0u);

  set_probe_batch_width(kDefaultProbeBatchWidth);
  std::vector<RouteProbe> pq;
  const QueryStats got = engine.run(queries, router, &pq);
  expect_stats_identical(ref, got);
  EXPECT_EQ(ref_pq, pq);
}

}  // namespace
}  // namespace canon
