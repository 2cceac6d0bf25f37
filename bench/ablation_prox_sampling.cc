// Ablation A8 (Section 3.6): the claim that sampling s = 32 candidate
// endpoints per group link suffices to find a nearby node. We sweep s and
// measure the mean group-link latency and end-to-end route latency for
// Chord (Prox.), where every inter-group link is a sampled endpoint.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "canon/proximity.h"
#include "common/table.h"
#include "overlay/metrics.h"
#include "overlay/query_engine.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_prox_sampling");
  const std::uint64_t seed = run.seed;
  // Group links need two groups, which GroupedOverlay forms from
  // 2 * kTargetGroupSize nodes on; route latency needs one query.
  const std::uint64_t n = run.u64("nodes", 16384, 2 * kTargetGroupSize);
  const std::uint64_t trials = run.u64("trials", 2000, 1);
  run.header("Ablation A8: proximity sampling budget s",
                "mean link and route latency of Chord (Prox.) vs the "
                "number of sampled endpoints per group link");

  Rng topo_rng(seed);
  const PhysicalNetwork phys(TransitStubConfig{}, topo_rng);
  Rng rng(seed + 1);
  const auto net = make_physical_population(n, phys, 32, rng);
  const HopCost cost = host_hop_cost(net, phys);
  const auto groups = std::make_shared<const GroupedOverlay>(net);

  TextTable table({"s", "mean group-link ms", "mean route ms",
                   "route stretch vs s=32"});
  // One workload for every s (the original re-seeded identically per s);
  // routed through the batch QueryEngine with per-path latency costs.
  QueryEngine engine(net);
  engine.set_cost(cost);
  const auto queries = uniform_workload(net, trials, Rng(seed + 3));
  double base_route = 0;
  std::vector<std::vector<std::string>> rows;
  for (const int s : {1, 2, 4, 8, 16, 32}) {
    ProximityConfig cfg;
    cfg.sample_size = s;
    Rng brng(seed + 2);  // same stream for every s: isolates the s effect
    const auto links = build_chord_prox(net, *groups, cost, cfg, brng);
    // Mean latency of the inter-group links.
    Summary link_ms;
    for (std::uint32_t m = 0; m < net.size(); ++m) {
      for (const auto v : links.neighbors(m)) {
        if (groups->group_index_of(v) != groups->group_index_of(m)) {
          link_ms.add(cost(m, v));
        }
      }
    }
    const GroupRouter router(net, groups, links);
    const Summary route_ms = engine.run(queries, router).cost;
    if (s == 32) base_route = route_ms.mean();
    rows.push_back({std::to_string(s), TextTable::num(link_ms.mean(), 0),
                    TextTable::num(route_ms.mean(), 0),
                    TextTable::num(route_ms.mean(), 0)});
  }
  for (auto& row : rows) {
    row[3] = TextTable::num(std::stod(row[2]) / base_route, 2);
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper cites internet measurements that s = 32 suffices; "
               "expected: returns diminish well before 32)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
