// Tests for the load observatory's accounting core: Gini extremes, the
// hand-checked role tallies and their invariants, the §5 domain-confinement
// ratio measured as exactly 1.0 on Crescendo, Zipf workload determinism
// across thread counts (with measured skew tracking the exponent), and
// byte-identical load reports at any --threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/load_stats.h"

namespace canon {
namespace {

using telemetry::LoadAccountant;

/// Restores serial execution on scope exit.
class ThreadGuard {
 public:
  ~ThreadGuard() { set_parallel_threads(0); }
};

OverlayNetwork small_net(std::uint64_t nodes, int levels,
                         std::uint64_t seed = 7) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = nodes;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  return make_population(spec, rng);
}

// ------------------------------------------------------------------- gini

TEST(Gini, ExtremesAndOrdering) {
  EXPECT_EQ(telemetry::gini_coefficient({}), 0.0);
  const std::vector<std::uint64_t> zeros(8, 0);
  EXPECT_EQ(telemetry::gini_coefficient(zeros), 0.0);
  const std::vector<std::uint64_t> even(8, 5);
  EXPECT_EQ(telemetry::gini_coefficient(even), 0.0);

  // All load on one of n nodes: G = (n-1)/n.
  std::vector<std::uint64_t> spike(10, 0);
  spike[3] = 100;
  EXPECT_NEAR(telemetry::gini_coefficient(spike), 0.9, 1e-12);

  // More concentration, higher Gini.
  const std::vector<std::uint64_t> mild{4, 5, 6, 5, 4, 6};
  const std::vector<std::uint64_t> harsh{1, 1, 1, 1, 1, 25};
  EXPECT_LT(telemetry::gini_coefficient(mild),
            telemetry::gini_coefficient(harsh));
}

TEST(Gini, TopLoadedNodesSortedWithIndexTieBreak) {
  const std::vector<std::uint64_t> loads{3, 9, 3, 0, 9, 1};
  const auto top = telemetry::top_loaded_nodes(loads, 4);
  ASSERT_EQ(top.size(), 4u);
  // Count descending, node index ascending on ties.
  EXPECT_EQ(top[0], (std::pair<std::uint32_t, std::uint64_t>{1, 9}));
  EXPECT_EQ(top[1], (std::pair<std::uint32_t, std::uint64_t>{4, 9}));
  EXPECT_EQ(top[2], (std::pair<std::uint32_t, std::uint64_t>{0, 3}));
  EXPECT_EQ(top[3], (std::pair<std::uint32_t, std::uint64_t>{2, 3}));
  // k beyond the population clamps.
  EXPECT_EQ(telemetry::top_loaded_nodes(loads, 100).size(), loads.size());
}

// ------------------------------------------------------- role accounting

TEST(LoadStats, HandCheckedRoleTallies) {
  const OverlayNetwork net = small_net(16, 2);
  LoadAccountant acc(net.domains(), net.ids());
  LoadAccountant::Shard shard;

  const std::vector<std::uint32_t> abc{0, 1, 2};
  acc.observe(abc, /*ok=*/true, /*key=*/7, shard);
  const std::vector<std::uint32_t> single{3};
  acc.observe(single, /*ok=*/true, /*key=*/7, shard);
  const std::vector<std::uint32_t> failed{2, 1};
  acc.observe(failed, /*ok=*/false, /*key=*/9, shard);
  acc.merge(shard);

  EXPECT_EQ(acc.queries(), 3u);
  EXPECT_EQ(acc.ok(), 2u);
  EXPECT_EQ(acc.total_hops(), 3u);

  EXPECT_EQ(acc.load()[0], 1u);
  EXPECT_EQ(acc.load()[1], 2u);
  EXPECT_EQ(acc.load()[2], 2u);
  EXPECT_EQ(acc.load()[3], 1u);
  EXPECT_EQ(acc.as_source()[0], 1u);
  EXPECT_EQ(acc.as_relay()[1], 1u);
  EXPECT_EQ(acc.as_terminal()[2], 1u);
  // The single-node path wears both hats on one message.
  EXPECT_EQ(acc.as_source()[3], 1u);
  EXPECT_EQ(acc.as_terminal()[3], 1u);

  const auto keys = acc.top_keys(2);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].key, 7u);
  EXPECT_EQ(keys[0].lookups, 2u);
  EXPECT_EQ(keys[1].key, 9u);
}

TEST(LoadStats, InvariantsOnRealWorkload) {
  const OverlayNetwork net = small_net(512, 3);
  const LinkTable links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto queries = zipf_workload(net, 4000, Rng(11));

  telemetry::LoadAccountant acc(net.domains(), net.ids());
  QueryEngine engine(net);
  engine.set_load(&acc);
  const QueryStats stats = engine.run(queries, router);

  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  EXPECT_EQ(acc.queries(), 4000u);
  EXPECT_EQ(acc.total_hops(), stats.total_hops);
  // One handling per path node: hops + one terminal handling per query.
  EXPECT_EQ(sum(acc.load()), acc.total_hops() + acc.queries());
  EXPECT_EQ(sum(acc.as_source()), acc.queries());
  EXPECT_EQ(sum(acc.as_terminal()), acc.queries());
  EXPECT_EQ(sum(acc.hops_by_level()), acc.total_hops());
  EXPECT_GE(acc.max_load(), static_cast<std::uint64_t>(acc.mean_load()));
  EXPECT_GE(acc.gini(), 0.0);
  EXPECT_LE(acc.gini(), 1.0);

  // Domain shares are fractions of the total hop count.
  double share_sum = 0;
  for (const auto& d : acc.domain_loads()) {
    EXPECT_GE(d.share, 0.0);
    EXPECT_LE(d.share, 1.0);
    share_sum += d.share;
  }
  EXPECT_LE(share_sum, 1.0 + 1e-12);
}

TEST(LoadStats, CrescendoConfinesIntraDomainLookupsExactly) {
  // §5: traffic between nodes of one domain stays inside the domain — the
  // measured ratio must be exactly 1.0, not approximately.
  for (const int levels : {2, 3, 4}) {
    const OverlayNetwork net = small_net(768, levels);
    const LinkTable links = build_crescendo(net);
    const RingRouter router(net, links);
    const auto queries = uniform_workload(net, 3000, Rng(23));

    telemetry::LoadAccountant acc(net.domains(), net.ids());
    QueryEngine engine(net);
    engine.set_load(&acc);
    engine.run(queries, router);

    EXPECT_GT(acc.intra_domain_queries(), 0u) << "levels=" << levels;
    EXPECT_EQ(acc.confined_queries(), acc.intra_domain_queries())
        << "levels=" << levels;
    EXPECT_EQ(acc.confinement_ratio(), 1.0) << "levels=" << levels;
  }
}

// ---------------------------------------------------------- zipf workload

TEST(ZipfWorkload, SameSeedSameSequenceAtAnyThreadCount) {
  ThreadGuard guard;
  const OverlayNetwork net = small_net(256, 2);
  std::vector<Query> reference;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    const auto queries = zipf_workload(net, 3000, Rng(99));
    if (reference.empty()) {
      reference = queries;
      continue;
    }
    ASSERT_EQ(queries.size(), reference.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(queries[i].from, reference[i].from) << "i=" << i;
      EXPECT_EQ(queries[i].key, reference[i].key) << "i=" << i;
    }
  }
}

TEST(ZipfWorkload, MeasuredSkewTracksExponent) {
  const OverlayNetwork net = small_net(256, 2);
  const double theta = 1.25;
  const std::size_t pool = net.size();  // one key per node
  const std::size_t count = 60000;
  const auto queries = zipf_workload(net, count, Rng(5), theta);

  std::unordered_map<std::uint64_t, std::uint64_t> freq;
  for (const Query& q : queries) ++freq[q.key];
  // At theta=1.25 the head dominates: the hottest key's measured share
  // must match the sampler's rank-0 probability within sampling noise.
  std::uint64_t hottest = 0;
  for (const auto& [key, n] : freq) hottest = std::max(hottest, n);
  const ZipfSampler zipf(pool, theta);
  const double expected = zipf.pmf(0);
  const double measured =
      static_cast<double>(hottest) / static_cast<double>(count);
  EXPECT_NEAR(measured, expected, 0.15 * expected);
  // And the workload is genuinely skewed, not uniform.
  EXPECT_LT(freq.size(), pool + 1);
  EXPECT_GT(measured, 2.0 / static_cast<double>(pool));
}

TEST(LoadStats, ReportBytesIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const OverlayNetwork net = small_net(512, 3);
  const LinkTable links = build_crescendo(net);
  const RingRouter router(net, links);

  std::string reference;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    const auto queries = zipf_workload(net, 5000, Rng(31));
    telemetry::LoadAccountant acc(net.domains(), net.ids());
    QueryEngine engine(net);
    engine.set_load(&acc);
    engine.run(queries, router);
    const std::string report = acc.to_json().dump(1);
    if (reference.empty()) {
      reference = report;
    } else {
      EXPECT_EQ(report, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

}  // namespace
}  // namespace canon
