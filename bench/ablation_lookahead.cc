// Ablation A1 (Section 3.1): greedy routing with a 1-step lookahead cuts
// hop counts by ~40% in Symphony; Cacophony inherits the same improvement.
//
// Both variants route the same pre-generated workload through the batch
// QueryEngine (probe mode, parallel across --threads); hop means cover
// successful routes.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/cacophony.h"
#include "common/table.h"
#include "dht/symphony.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_lookahead");
  const std::uint64_t seed = run.seed;
  const std::uint64_t min_n = run.u64("min-nodes", 1024, 1);
  const std::uint64_t max_n = run.u64("max-nodes", 32768);
  const std::uint64_t trials = run.u64("trials", 2000, 1);
  run.header("Ablation A1: greedy-with-lookahead routing",
                "Symphony & Cacophony (3 levels), hops with/without "
                "lookahead");

  TextTable table({"nodes", "Symphony greedy", "Symphony lookahead", "saved",
                   "Cacophony greedy", "Cacophony lookahead", "saved"});
  for (std::uint64_t n = min_n; n <= max_n; n *= 2) {
    std::vector<std::string> row = {TextTable::num(n)};
    for (const bool hierarchical : {false, true}) {
      Rng rng(seed + n + hierarchical);
      PopulationSpec spec;
      spec.node_count = n;
      spec.hierarchy.levels = hierarchical ? 3 : 1;
      spec.hierarchy.fanout = 10;
      const auto net = make_population(spec, rng);
      const auto links = hierarchical ? build_cacophony(net, rng)
                                      : build_symphony(net, rng);
      const QueryEngine engine(net);
      const auto queries = uniform_workload(net, trials, rng);
      const Summary greedy = engine.run(queries, RingRouter(net, links)).hops;
      const Summary ahead =
          engine.run(queries, LookaheadRouter(net, links)).hops;
      row.push_back(TextTable::num(greedy.mean(), 2));
      row.push_back(TextTable::num(ahead.mean(), 2));
      row.push_back(
          TextTable::num(100 * (1 - ahead.mean() / greedy.mean()), 0) + "%");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: ~40% savings asymptotically — O(log n / log log n) "
               "vs 0.5 log n; our conservative committed-pair variant saves "
               "~15-25% at these sizes, growing with n)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
