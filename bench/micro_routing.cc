// Microbenchmarks (google-benchmark): routing throughput for the greedy
// ring router (Chord/Crescendo), lookahead and XOR routing, plus the batch
// QueryEngine.
//
// All (from, key) workloads are pre-generated outside the timed loops
// (cycled through a power-of-two array), so BM_Route* measures routing
// only — not RNG draws. The BM_Batch* benchmarks route the whole workload
// per iteration through the QueryEngine; pass --threads=N to fan the batch
// across the pool (items/sec is the headline number). BM_ProbeBatch* /
// BM_ProbeScalar* isolate the interleaved memory-level-parallel probe
// kernel against its scalar loop on a shared (cached) fixture, up to a
// DRAM-resident 2^20 nodes.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/micro_util.h"

#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "dht/chord.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

namespace canon {
namespace {

/// Pre-generated workload size; a power of two so the timed loops cycle
/// with a mask instead of a modulo.
constexpr std::size_t kWorkload = 4096;
constexpr std::size_t kMask = kWorkload - 1;

void BM_RouteCrescendo(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    benchmark::DoNotOptimize(router.route(q.from, q.key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCrescendo)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_RouteCrescendoInto(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  Route scratch;  // reused: no per-query allocation after warm-up
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    router.route_into(q.from, q.key, scratch);
    benchmark::DoNotOptimize(scratch.ok);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCrescendoInto)->Arg(8192);

void BM_ProbeCrescendo(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    benchmark::DoNotOptimize(router.probe(q.from, q.key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeCrescendo)->Arg(8192);

void BM_RouteCrescendoLookahead(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const LookaheadRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(12));
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    benchmark::DoNotOptimize(router.route(q.from, q.key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteCrescendoLookahead)->Arg(8192);

void BM_RouteKandy(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  Rng rng(13);
  const auto links = build_kandy(net);
  const XorRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    benchmark::DoNotOptimize(router.route(q.from, q.key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteKandy)->Arg(8192);

/// Shared population+links fixture for the probe-kernel benchmarks,
/// cached across re-entries —
/// google-benchmark re-runs a benchmark function while estimating
/// iteration counts, and a 2^20 build is far too expensive to repeat.
const std::pair<OverlayNetwork, LinkTable>& probe_fixture(std::size_t n) {
  static std::map<std::size_t,
                  std::unique_ptr<std::pair<OverlayNetwork, LinkTable>>>
      cache;
  auto& slot = cache[n];
  if (!slot) {
    auto net = bench::bench_population(n, 4);
    auto links = build_crescendo(net);
    slot = std::make_unique<std::pair<OverlayNetwork, LinkTable>>(
        std::move(net), std::move(links));
  }
  return *slot;
}

/// The interleaved batch probe kernel (RingRouter::probe_batch at the
/// configured --batch-width) over the whole pre-generated workload per
/// iteration. 2^20 is deliberately DRAM-resident — the CSR row loads miss
/// every cache level, which is exactly where the group-prefetch window
/// earns its speedup over BM_ProbeScalarCrescendo.
void BM_ProbeBatchCrescendo(benchmark::State& state) {
  const auto& [net, links] =
      probe_fixture(static_cast<std::size_t>(state.range(0)));
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  std::vector<RouteProbe> out(queries.size());
  for (auto _ : state) {
    router.probe_batch(queries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWorkload));
}
BENCHMARK(BM_ProbeBatchCrescendo)->Arg(8192)->Arg(1 << 20);

/// The scalar per-call probe loop over the same fixture and workload —
/// the baseline BM_ProbeBatchCrescendo's speedup is measured against
/// (same build path, same cycling, only the kernel differs).
void BM_ProbeScalarCrescendo(benchmark::State& state) {
  const auto& [net, links] =
      probe_fixture(static_cast<std::size_t>(state.range(0)));
  const RingRouter router(net, links);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& q = queries[i++ & kMask];
    benchmark::DoNotOptimize(router.probe(q.from, q.key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeScalarCrescendo)->Arg(8192)->Arg(1 << 20);

/// Whole-workload batch through the QueryEngine in probe mode (the
/// engine's fastest path: no path storage at all). One iteration routes
/// kWorkload lookups; items/sec is lookup throughput at the configured
/// --threads.
void BM_BatchRouteCrescendo(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(queries, router));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWorkload));
}
BENCHMARK(BM_BatchRouteCrescendo)->Arg(8192)->Arg(65536);

/// Same batch in full mode (per-shard scratch route_into + level tallies):
/// what the fig5-style benches pay per lookup.
void BM_BatchRouteCrescendoFull(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  QueryEngine engine(net);
  engine.set_level_tracking(true);
  const auto queries = uniform_workload(net, kWorkload, Rng(11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(queries, router));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWorkload));
}
BENCHMARK(BM_BatchRouteCrescendoFull)->Arg(8192);

}  // namespace
}  // namespace canon

CANON_MICRO_MAIN("micro_routing");
