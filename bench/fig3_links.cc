// Figure 3: average number of links per node vs. network size, for
// hierarchies of 1 (flat Chord) to 5 levels with fan-out 10 and Zipf(1.25)
// node placement, 32-bit IDs.
//
// Expected shape (paper): all curves sit just below log2(n); more levels
// give slightly FEWER links (Jensen's inequality), not more.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/population.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig3_links");
  const std::uint64_t seed = run.seed;
  const std::uint64_t min_n = run.u64("min-nodes", 1024, 1);
  const std::uint64_t max_n = run.u64("max-nodes", 65536);
  run.header("Figure 3: average links per node",
             "avg #edges/node vs n, levels 1-5, fanout 10, Zipf(1.25)");

  TextTable table({"nodes", "levels=1 (Chord)", "levels=2", "levels=3",
                   "levels=4", "levels=5"});
  for (std::uint64_t n = min_n; n <= max_n; n *= 2) {
    std::vector<std::string> row = {TextTable::num(n)};
    for (int levels = 1; levels <= 5; ++levels) {
      Rng rng(seed + levels);
      PopulationSpec spec;
      spec.node_count = n;
      spec.hierarchy.levels = levels;
      spec.hierarchy.fanout = 10;
      spec.hierarchy.placement = Placement::kZipf;
      const auto net = make_population(spec, rng);
      const auto links = build_crescendo(net);
      row.push_back(TextTable::num(links.mean_degree(), 2));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: curves hug log2(n); deeper hierarchies slightly "
               "below flat Chord)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
