// Ablation A2 (Section 4.3): partition balance. Max/min partition ratio
// for random IDs (Theta(log^2 n)), the bisection scheme (constant), and
// the hierarchical variant (constant per domain as well).
#include <iostream>

#include "balance/id_allocator.h"
#include "bench/bench_util.h"
#include "common/table.h"

using namespace canon;

namespace {

struct Grown {
  std::vector<NodeId> all;
  std::vector<std::vector<NodeId>> domains;
};

Grown grow(IdAllocator& alloc, std::size_t n, int domains, const IdSpace& space,
           Rng& rng) {
  Grown g;
  g.domains.resize(static_cast<std::size_t>(domains));
  for (std::size_t i = 0; i < n; ++i) {
    auto& mates = g.domains[i % g.domains.size()];
    const NodeId id = alloc.allocate(g.all, mates, space, rng);
    g.all.insert(std::lower_bound(g.all.begin(), g.all.end(), id), id);
    mates.push_back(id);
  }
  return g;
}

double worst_domain_ratio(const Grown& g, const IdSpace& space) {
  double worst = 0;
  for (const auto& d : g.domains) {
    if (d.size() >= 2) worst = std::max(worst, partition_ratio(d, space));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_balance");
  const std::uint64_t seed = run.seed;
  const std::uint64_t min_n = run.u64("min-nodes", 1024, 2);
  const std::uint64_t max_n = run.u64("max-nodes", 16384);
  run.header("Ablation A2: partition balance",
                "global and worst-domain max/min partition ratio; random vs "
                "bisection vs hierarchical (16 domains)");

  const IdSpace space(32);
  TextTable table({"nodes", "random global", "random domain",
                   "bisection global", "bisection domain", "hier global",
                   "hier domain"});
  for (std::uint64_t n = min_n; n <= max_n; n *= 2) {
    Rng r1(seed + n);
    Rng r2(seed + n);
    Rng r3(seed + n);
    RandomIdAllocator random_alloc;
    BisectionIdAllocator bisect_alloc;
    HierarchicalIdAllocator hier_alloc;
    const Grown a = grow(random_alloc, n, 16, space, r1);
    const Grown b = grow(bisect_alloc, n, 16, space, r2);
    const Grown c = grow(hier_alloc, n, 16, space, r3);
    table.add_row({TextTable::num(n),
                   TextTable::num(partition_ratio(a.all, space), 1),
                   TextTable::num(worst_domain_ratio(a, space), 1),
                   TextTable::num(partition_ratio(b.all, space), 1),
                   TextTable::num(worst_domain_ratio(b, space), 1),
                   TextTable::num(partition_ratio(c.all, space), 1),
                   TextTable::num(worst_domain_ratio(c, space), 1)});
  }
  table.print(std::cout);
  std::cout << "\n(paper/[11]: random grows as log^2 n; bisection is a small "
               "constant; the hierarchical variant also balances every "
               "domain)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
