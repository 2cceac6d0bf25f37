// Figure 9 (table): number of inter-domain links in a 1000-source
// multicast tree, 32K nodes — the bandwidth-saving metric.
//
// 1000 random nodes route a query to one common random destination; the
// union of the paths is the multicast tree (data flows along the reverse
// edges). We count tree edges that cross a domain boundary at hierarchy
// levels 1, 2 and 3.
//
// Expected shape (paper): Crescendo 19 / 39 / 353.7 vs Chord (Prox.)
// 884.9 / 1273.7 / 2502.7 — a ~44x saving at the top level, ~15% usage at
// level 3.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/table.h"
#include "overlay/metrics.h"
#include "overlay/routing.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig9_multicast");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 32768, 1);
  const std::uint64_t sources = run.u64("sources", 1000);
  const std::uint64_t repeats = run.u64("repeats", 10, 1);
  run.header("Figure 9: inter-domain links in a 1000-source multicast "
                "tree (32K nodes)",
                "Crescendo vs Chord (Prox.), domain levels 1-3");

  Rng topo_rng(seed);
  const PhysicalNetwork phys(TransitStubConfig{}, topo_rng);
  Rng rng(seed + 1);
  const auto net = make_physical_population(n, phys, 32, rng);
  const HopCost cost = host_hop_cost(net, phys);
  const auto groups = std::make_shared<const GroupedOverlay>(net);
  const ProximityConfig cfg;

  const auto crescendo = build_crescendo(net);
  const auto chord_prox = build_chord_prox(net, *groups, cost, cfg, rng);
  const RingRouter crescendo_router(net, crescendo);
  const GroupRouter chord_router(net, groups, chord_prox);

  Summary cr[4];
  Summary ch[4];
  Rng qrng(seed + 5);
  for (std::uint64_t rep = 0; rep < repeats; ++rep) {
    const NodeId key = net.space().wrap(qrng());
    MulticastTree cr_tree;
    MulticastTree ch_tree;
    for (std::uint64_t s = 0; s < sources; ++s) {
      const auto src = static_cast<std::uint32_t>(qrng.uniform(net.size()));
      const Route a = crescendo_router.route(src, key);
      const Route b = chord_router.route(src, key);
      if (a.ok) cr_tree.add_route(a);
      if (b.ok) ch_tree.add_route(b);
    }
    for (int level = 1; level <= 3; ++level) {
      cr[level].add(
          static_cast<double>(cr_tree.inter_domain_edges(net, level)));
      ch[level].add(
          static_cast<double>(ch_tree.inter_domain_edges(net, level)));
    }
  }

  TextTable table({"domain level", "Crescendo", "Chord (Prox.)", "ratio"});
  for (int level = 1; level <= 3; ++level) {
    table.add_row({TextTable::num(level), TextTable::num(cr[level].mean(), 1),
                   TextTable::num(ch[level].mean(), 1),
                   TextTable::num(ch[level].mean() / cr[level].mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: Crescendo 19 / 39 / 353.7; Chord(Prox) 884.9 / "
               "1273.7 / 2502.7 -> ratios ~44x / ~33x / ~7x)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
