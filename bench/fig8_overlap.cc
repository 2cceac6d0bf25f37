// Figure 8: overlap fraction between converging query paths as a function
// of domain level, 32K nodes — the caching benefit metric.
//
// Two nodes drawn from the same level-d domain issue the same query; the
// overlap fraction is the fraction of the second path (hops / latency)
// shared with the first. Systems: Crescendo vs Chord (Prox.).
//
// Expected shape (paper): Chord's overlap is near zero at every level;
// Crescendo's rises steeply with domain level, and latency overlap exceeds
// hop overlap.
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/table.h"
#include "overlay/metrics.h"
#include "overlay/routing.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig8_overlap");
  const std::uint64_t seed = run.seed;
  // A pair of same-domain nodes and one query are the least a level's
  // overlap can be measured from.
  const std::uint64_t n = run.u64("nodes", 32768, 2);
  const std::uint64_t trials = run.u64("trials", 3000, 1);
  run.header("Figure 8: path overlap fraction vs domain level (32K)",
                "hop & latency overlap of two same-domain queries; "
                "Crescendo vs Chord (Prox.)");

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

  TextTable table({"domain level", "Crescendo hops", "Crescendo latency",
                   "Chord(Prox) hops", "Chord(Prox) latency"});
  const char* labels[] = {"Top Level", "Level 1", "Level 2", "Level 3",
                          "Level 4"};
  // In a small population a deep level may yield no measured pair: its
  // cell shows "-".
  const auto mean_or_dash = [](const Summary& s) {
    return s.count() == 0 ? std::string("-") : TextTable::num(s.mean(), 3);
  };
  for (int level = 0; level <= 4; ++level) {
    Summary cr_hops;
    Summary cr_ms;
    Summary ch_hops;
    Summary ch_ms;
    Rng qrng(seed + 11 + level);
    for (std::uint64_t t = 0; t < trials; ++t) {
      // Two distinct nodes from the same level-`level` domain, one common
      // random key.
      const auto first =
          static_cast<std::uint32_t>(qrng.uniform(net.size()));
      const int domain = net.domains().domain_of(first, level);
      const RingView ring = net.domain_ring(domain);
      if (ring.size() < 2) continue;
      std::uint32_t second = ring.at(qrng.uniform(ring.size()));
      if (second == first) continue;
      const NodeId key = net.space().wrap(qrng());

      const Route c1 = crescendo_router.route(first, key);
      const Route c2 = crescendo_router.route(second, key);
      if (c1.ok && c2.ok) {
        if (const auto f = hop_overlap_fraction(c1, c2)) cr_hops.add(*f);
        if (const auto f = cost_overlap_fraction(c1, c2, cost)) cr_ms.add(*f);
      }
      const Route p1 = chord_router.route(first, key);
      const Route p2 = chord_router.route(second, key);
      if (p1.ok && p2.ok) {
        if (const auto f = hop_overlap_fraction(p1, p2)) ch_hops.add(*f);
        if (const auto f = cost_overlap_fraction(p1, p2, cost)) ch_ms.add(*f);
      }
    }
    table.add_row({labels[level], mean_or_dash(cr_hops), mean_or_dash(cr_ms),
                   mean_or_dash(ch_hops), mean_or_dash(ch_ms)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: Crescendo overlap climbs toward ~0.9 with domain "
               "level, latency > hops; Chord stays near 0)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
