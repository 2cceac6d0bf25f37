// Figure 4: the distribution (PDF) of the number of links per node in a
// 32K-node network, for 1 to 5 hierarchy levels.
//
// Expected shape (paper): mean ~15 links/node; deeper hierarchies flatten
// the distribution to the LEFT of the mean while the maximum barely moves.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/population.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig4_degree_pdf");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 32768, 1);
  run.header("Figure 4: PDF of links per node (32K nodes)",
                "fraction of nodes with a given degree, levels 1-5");

  std::vector<Histogram> hist(5);
  std::vector<double> mean(5);
  for (int levels = 1; levels <= 5; ++levels) {
    Rng rng(seed + levels);
    PopulationSpec spec;
    spec.node_count = n;
    spec.hierarchy.levels = levels;
    spec.hierarchy.fanout = 10;
    const auto net = make_population(spec, rng);
    const auto links = build_crescendo(net);
    hist[levels - 1] = links.degree_histogram();
    mean[levels - 1] = links.mean_degree();
  }

  TextTable table({"#links", "levels=1 (Chord)", "levels=2", "levels=3",
                   "levels=4", "levels=5"});
  std::int64_t lo = hist[0].min();
  std::int64_t hi = hist[0].max();
  for (const auto& h : hist) {
    lo = std::min(lo, h.min());
    hi = std::max(hi, h.max());
  }
  for (std::int64_t d = lo; d <= hi; ++d) {
    std::vector<std::string> row = {std::to_string(d)};
    for (int l = 0; l < 5; ++l) row.push_back(TextTable::num(hist[l].pmf(d), 4));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nmeans:";
  for (int l = 0; l < 5; ++l) {
    std::cout << " levels=" << (l + 1) << ": " << TextTable::num(mean[l], 2);
  }
  std::cout << "\nmax degree:";
  for (int l = 0; l < 5; ++l) {
    std::cout << " levels=" << (l + 1) << ": " << hist[l].max();
  }
  std::cout << "\n(paper: distribution flattens left of the ~15-link mean as "
               "levels grow; max stays put)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
