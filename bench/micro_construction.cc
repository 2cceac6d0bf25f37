// Microbenchmarks (google-benchmark): construction throughput of the main
// link builders at several network sizes, and the per-change cost of
// dynamic maintenance.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/micro_util.h"

#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/population.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"

namespace canon {
namespace {

void BM_BuildChord(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_chord(net));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildChord)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_BuildCrescendo(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_crescendo(net));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildCrescendo)->Arg(1024)->Arg(8192)->Arg(32768)->Arg(65536);

void BM_BuildKandy(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_kandy(net, BucketChoice::kClosest, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildKandy)->Arg(1024)->Arg(8192);

void BM_BuildCanCan(benchmark::State& state) {
  const auto net = bench::bench_population(
      static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    CanCanNetwork cancan(net);
    benchmark::DoNotOptimize(cancan.links().total_links());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildCanCan)->Arg(1024)->Arg(8192);

void BM_BuildLatencyOracle(benchmark::State& state) {
  // The paper's 2040-router transit-stub graph: one Dijkstra per router
  // inside its own stub domain or the transit core.
  Rng rng(42);
  const TransitStubTopology topo(TransitStubConfig{}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LatencyOracle(topo).router_count());
  }
  state.SetItemsProcessed(state.iterations() * topo.router_count());
}
BENCHMARK(BM_BuildLatencyOracle);

void BM_ChurnPair(benchmark::State& state) {
  // One leave plus one join on a 3-level, fanout-5 DynamicCrescendo of
  // fixed size: the maintenance layer's per-change cost (one row copy plus
  // the recomputed affected rows, and the joiner's insertion lookup). Each
  // leaver goes to the back of a spare queue and rejoins later.
  const auto n = static_cast<std::size_t>(state.range(0));
  const IdSpace space(32);
  Rng rng(42);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 5;
  const std::vector<NodeId> ids = sample_unique_ids(2 * n, space, rng);
  const std::vector<DomainPath> paths = generate_hierarchy(2 * n, hier, rng);
  std::vector<OverlayNode> initial;
  std::vector<OverlayNode> spares;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    (i < n ? initial : spares).push_back({ids[i], paths[i], -1});
  }
  DynamicCrescendo dyn(space, std::move(initial));
  std::size_t next_spare = 0;
  for (auto _ : state) {
    const auto victim = static_cast<NodeIndex>(rng.uniform(dyn.size()));
    OverlayNode gone = dyn.network().node(victim);
    benchmark::DoNotOptimize(dyn.leave(gone.id));
    benchmark::DoNotOptimize(dyn.join(spares[next_spare]));
    spares[next_spare] = std::move(gone);
    next_spare = (next_spare + 1) % spares.size();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ChurnPair)->Arg(4096)->Arg(16384);

}  // namespace
}  // namespace canon

CANON_MICRO_MAIN("micro_construction");
