// Ablation A3 (Section 4.2): hierarchical proxy caching under a Zipfian
// workload with domain locality of reference. Reports hop savings and the
// level-aware vs LRU replacement comparison under cache pressure.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "common/zipf.h"
#include "overlay/population.h"
#include "storage/hierarchical_store.h"

using namespace canon;

namespace {

struct RunResult {
  double mean_hops = 0;
  double cache_hit_rate = 0;
};

RunResult run(const OverlayNetwork& net, const LinkTable& links,
              std::size_t cache_capacity, CachePolicy policy,
              std::uint64_t queries, std::uint64_t seed) {
  HierarchicalStore store(net, links, cache_capacity, policy);
  Rng rng(seed);
  // 512 popular keys, globally stored; popularity is Zipf(0.9).
  const std::size_t kKeys = 512;
  std::vector<NodeId> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const NodeId key = net.space().wrap(rng());
    keys.push_back(key);
    store.put(static_cast<std::uint32_t>(rng.uniform(net.size())), key,
              "v" + std::to_string(i), 0, 0);
  }
  // Locality of reference: each leaf domain prefers its own permutation of
  // the key ranks (nodes near each other ask for the same things).
  ZipfSampler zipf(kKeys, 0.9);
  Summary hops;
  std::uint64_t hits = 0;
  for (std::uint64_t q = 0; q < queries; ++q) {
    const auto origin = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const std::size_t rank = zipf.sample(rng);
    // Rotate ranks by the origin's leaf domain so different domains have
    // different favorites.
    const int leaf = net.domains().domain_chain(origin).back();
    const NodeId key = keys[(rank + static_cast<std::size_t>(leaf) * 37) %
                            kKeys];
    const GetResult got = store.get(origin, key);
    if (got.source == AnswerSource::kNotFound) continue;
    hops.add(got.route.hops());
    hits += (got.source == AnswerSource::kCache);
  }
  return RunResult{hops.mean(),
                   static_cast<double>(hits) / static_cast<double>(queries)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun bench_run(argc, argv, "ablation_caching");
  const std::uint64_t seed = bench_run.seed;
  const std::uint64_t n = bench_run.u64("nodes", 8192, 1);
  const std::uint64_t queries = bench_run.u64("queries", 30000, 1);
  bench_run.header("Ablation A3: hierarchical proxy caching",
                "Zipf(0.9) workload with per-domain locality, 512 keys, "
                "Crescendo with 4-level hierarchy");

  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 4;
  spec.hierarchy.fanout = 8;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);

  TextTable table({"configuration", "mean hops/query", "cache hit rate"});
  const auto off = run(net, links, 0, CachePolicy::kLevelAware, queries, seed);
  table.add_row({"no caching", TextTable::num(off.mean_hops, 2), "-"});
  for (const std::size_t capacity : {4u, 16u, 64u}) {
    const auto lvl =
        run(net, links, capacity, CachePolicy::kLevelAware, queries, seed);
    const auto lru = run(net, links, capacity, CachePolicy::kLru, queries,
                         seed);
    table.add_row({"level-aware, cap=" + std::to_string(capacity),
                   TextTable::num(lvl.mean_hops, 2),
                   TextTable::num(lvl.cache_hit_rate, 3)});
    table.add_row({"plain LRU,  cap=" + std::to_string(capacity),
                   TextTable::num(lru.mean_hops, 2),
                   TextTable::num(lru.cache_hit_rate, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(expected: caching cuts mean hops substantially; one copy "
               "per proxy level suffices, so small caches already help)\n";
  bench_run.report().set_series(bench::table_to_json(table));
  return bench_run.finish();
}
