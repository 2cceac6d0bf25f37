// Figure 7: query latency as a function of query locality, 32K nodes on
// the transit-stub topology.
//
// A "Level k" query is initiated by a node for content stored within its
// own level-k domain (Top Level = anywhere in the system); the query routes
// to the node responsible for that content. Systems: Chord (Prox.),
// Crescendo (No Prox.), Crescendo (Prox.).
//
// Expected shape (paper): Crescendo latency collapses as locality rises
// (virtually zero at level 3+, where queries stay inside one stub domain);
// Chord barely improves even with proximity adaptation.
//
// Per-level workloads are pre-generated from forked RNG streams and run
// through the batch QueryEngine (all three systems route the same
// queries); latency Summaries cover successful routes.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/table.h"
#include "overlay/metrics.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig7_locality");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 32768, 1);
  const std::uint64_t trials = run.u64("trials", 3000, 1);
  run.header("Figure 7: latency vs query locality (32K nodes)",
                "latency of level-k-local queries; Chord(Prox), "
                "Crescendo(No Prox), Crescendo(Prox)");

  Rng topo_rng(seed);
  const PhysicalNetwork phys(TransitStubConfig{}, topo_rng);
  Rng rng(seed + 1);
  const auto net = make_physical_population(n, phys, 32, rng);
  const HopCost cost = host_hop_cost(net, phys);
  const auto groups = std::make_shared<const GroupedOverlay>(net);
  const ProximityConfig cfg;

  const auto crescendo = build_crescendo(net);
  const auto chord_prox = build_chord_prox(net, *groups, cost, cfg, rng);
  const auto crescendo_prox =
      build_crescendo_prox(net, *groups, cost, cfg, rng);
  const RingRouter crescendo_router(net, crescendo);
  const GroupRouter chord_prox_router(net, groups, chord_prox);
  const GroupRouter crescendo_prox_router(net, groups, crescendo_prox);

  TextTable table({"query locality", "Chord (Prox.) ms",
                   "Crescendo (No Prox.) ms", "Crescendo (Prox.) ms"});
  const char* labels[] = {"Top Level", "Level 1", "Level 2", "Level 3",
                          "Level 4"};
  QueryEngine engine(net);
  engine.set_cost(cost);
  for (int level = 0; level <= 4; ++level) {
    // A query picks content stored at a random node of the source's
    // level-k domain (level 0 = anywhere); the key is that node's ID.
    const auto queries = generate_workload(
        trials, Rng(seed + 7 + static_cast<std::uint64_t>(level)),
        [&](Rng& q, std::size_t) {
          const auto from = static_cast<std::uint32_t>(q.uniform(net.size()));
          const int domain = net.domains().domain_of(from, level);
          const RingView ring = net.domain_ring(domain);
          const std::uint32_t target = ring.at(q.uniform(ring.size()));
          return Query{from, net.id(target)};
        });
    const Summary ms_chord_prox = engine.run(queries, chord_prox_router).cost;
    const Summary ms_crescendo = engine.run(queries, crescendo_router).cost;
    const Summary ms_crescendo_prox =
        engine.run(queries, crescendo_prox_router).cost;
    table.add_row({labels[level], TextTable::num(ms_chord_prox.mean(), 0),
                   TextTable::num(ms_crescendo.mean(), 0),
                   TextTable::num(ms_crescendo_prox.mean(), 0)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: Crescendo latency collapses with locality, near 0 "
               "by level 3; Chord(Prox) barely improves)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
