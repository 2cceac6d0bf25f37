// Figure 6: routing latency and stretch vs. network size on the 2040-router
// transit-stub topology, for Chord and Crescendo with and without proximity
// adaptation.
//
// Expected shape (paper): plain Chord's latency grows ~linearly in log n
// (stretch 5-8); plain Crescendo holds an almost constant stretch ~2.7;
// Chord (Prox.) improves but still grows (~2 at 64K); Crescendo (Prox.)
// holds a constant stretch ~1.3 and wins everywhere.
//
// Lookups run through the batch QueryEngine (workload pre-generated from
// forked RNG streams, fanned across --threads, byte-identical results at
// every thread count); latency Summaries cover successful routes.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/table.h"
#include "dht/chord.h"
#include "overlay/metrics.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig6_latency_stretch");
  const std::uint64_t seed = run.seed;
  const std::uint64_t min_n = run.u64("min-nodes", 2048, 1);
  const std::uint64_t max_n = run.u64("max-nodes", 65536);
  const std::uint64_t trials = run.u64("trials", 2000, 1);
  run.header(
      "Figure 6: latency and stretch on the transit-stub topology",
      "Chord / Crescendo x (no prox / prox), 2040 routers, 5-level hierarchy");

  Rng topo_rng(seed);
  const PhysicalNetwork phys(TransitStubConfig{}, topo_rng);
  const double base = phys.mean_host_latency(200000, topo_rng);
  std::cout << "mean shortest-path host latency (stretch normalizer): "
            << TextTable::num(base, 1) << " ms\n\n";

  TextTable table({"nodes", "Chord ms", "Chord stretch", "Crescendo ms",
                   "Crescendo stretch", "Chord(Prox) ms",
                   "Chord(Prox) stretch", "Crescendo(Prox) ms",
                   "Crescendo(Prox) stretch"});

  for (std::uint64_t n = min_n; n <= max_n; n *= 2) {
    Rng rng(seed + n);
    const auto net = make_physical_population(n, phys, 32, rng);
    const HopCost cost = host_hop_cost(net, phys);
    const auto groups = std::make_shared<const GroupedOverlay>(net);
    const ProximityConfig cfg;

    QueryEngine engine(net);
    engine.set_cost(cost);
    std::vector<Summary> ms(4);

    // Plain Chord and Crescendo share the greedy ring router (and the
    // same pre-generated workload, as before).
    {
      const auto chord = build_chord(net);
      const auto crescendo = build_crescendo(net);
      const RingRouter chord_router(net, chord);
      const RingRouter crescendo_router(net, crescendo);
      const auto queries = uniform_workload(net, trials, Rng(seed + n + 1));
      ms[0] = engine.run(queries, chord_router).cost;
      ms[1] = engine.run(queries, crescendo_router).cost;
    }
    // Proximity-adapted versions use the group router.
    {
      Rng brng(seed + n + 2);
      const auto chord_prox = build_chord_prox(net, *groups, cost, cfg, brng);
      const auto crescendo_prox =
          build_crescendo_prox(net, *groups, cost, cfg, brng);
      const GroupRouter chord_router(net, groups, chord_prox);
      const GroupRouter crescendo_router(net, groups, crescendo_prox);
      const auto queries = uniform_workload(net, trials, Rng(seed + n + 3));
      ms[2] = engine.run(queries, chord_router).cost;
      ms[3] = engine.run(queries, crescendo_router).cost;
    }

    std::vector<std::string> row = {TextTable::num(n)};
    for (int s = 0; s < 4; ++s) {
      row.push_back(TextTable::num(ms[s].mean(), 0));
      row.push_back(TextTable::num(ms[s].mean() / base, 2));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: Chord stretch grows with log n; Crescendo ~2.7 "
               "flat; Chord(Prox) ~2 at 64K; Crescendo(Prox) ~1.3 flat)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
