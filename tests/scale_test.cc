// Mega-scale regression tests: the streamed construction path, the
// compact-id hot paths, and the dense-bitmap ID sampler must all be
// byte-identical to their plain counterparts — at sizes large enough
// (>= 2^18 nodes in optimized builds) to exercise the shard machinery for
// real, not just one shard.
//
// Sizes are NDEBUG-gated: the Debug/ASan/TSan CI jobs run the same
// assertions at 2^14 so the suite stays fast where every container access
// is checked; RelWithDebInfo and Release run the full 2^18.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

namespace canon {
namespace {

#ifdef NDEBUG
constexpr std::size_t kScaleNodes = std::size_t{1} << 18;
#else
constexpr std::size_t kScaleNodes = std::size_t{1} << 14;
#endif

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

OverlayNetwork scale_population(std::size_t n) {
  Rng rng(42);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  return make_population(spec, rng);
}

TEST(Scale, StreamedBuildEqualsPlainBuild) {
  // The shard-by-shard build must equal the plain per-node construction:
  // each node's add_crescendo_links, sorted and deduplicated.
  const auto net = scale_population(kScaleNodes);
  const LinkTable streamed = build_crescendo(net);
  LinkRow plain;
  for (NodeIndex m = 0; m < net.size(); ++m) {
    plain.clear();
    add_crescendo_links(net, m, plain);
    std::sort(plain.begin(), plain.end());
    plain.erase(std::unique(plain.begin(), plain.end()), plain.end());
    const auto row = streamed.neighbors(m);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), plain.begin(),
                           plain.end()))
        << "node " << m;
  }
}

TEST(Scale, StreamedBuildIsThreadInvariant) {
  ThreadGuard guard;
  const auto net = scale_population(kScaleNodes);
  set_parallel_threads(1);
  const LinkTable serial = build_crescendo(net);
  set_parallel_threads(4);
  const LinkTable parallel = build_crescendo(net);
  EXPECT_TRUE(serial == parallel);
}

TEST(Scale, ConstructionAndQueriesAreThreadInvariant) {
  ThreadGuard guard;
  // The full mega-scale pipeline (population -> streamed build -> batch
  // lookups) must produce byte-identical figures at every thread count.
  auto run_once = [] {
    const auto net = scale_population(kScaleNodes);
    const LinkTable links = build_crescendo(net);
    const RingRouter router(net, links);
    QueryEngine engine(net);
    const auto queries = uniform_workload(net, 20000, Rng(7));
    return engine.run(queries, router);
  };
  set_parallel_threads(1);
  const QueryStats serial = run_once();
  set_parallel_threads(4);
  const QueryStats parallel = run_once();
  EXPECT_EQ(serial.queries, parallel.queries);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.total_hops, parallel.total_hops);
  EXPECT_EQ(serial.hops.count(), parallel.hops.count());
  EXPECT_EQ(serial.hops.mean(), parallel.hops.mean());
  EXPECT_EQ(serial.failures, 0u);
}

TEST(Scale, BitmapSamplerMatchesHashSetSampler) {
  // 2^18 ids in a 24-bit space lands in the dense-bitmap branch; the same
  // seed in a 64-bit space takes the hash-set branch. Both must accept
  // the first occurrence of every draw, so the 24-bit sequence is exactly
  // the 64-bit sequence wrapped — checked against a scalar reference.
  const std::size_t count = kScaleNodes;
  const IdSpace small(24);
  Rng a(123);
  const std::vector<NodeId> sampled = sample_unique_ids(count, small, a);
  ASSERT_EQ(sampled.size(), count);

  Rng b(123);
  std::vector<NodeId> reference;
  reference.reserve(count);
  std::unordered_set<NodeId> seen;
  while (reference.size() < count) {
    const NodeId id = small.wrap(b());
    if (seen.insert(id).second) reference.push_back(id);
  }
  EXPECT_EQ(sampled, reference);
}

TEST(Scale, BitmapSamplerIdsAreUniqueAndInRange) {
  const IdSpace space(20);  // 2^20 ids, sample fills half the space
  Rng rng(99);
  const std::vector<NodeId> ids =
      sample_unique_ids(std::size_t{1} << 19, space, rng);
  std::unordered_set<NodeId> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), ids.size());
  for (const NodeId id : ids) EXPECT_EQ(id, space.wrap(id));
}

}  // namespace
}  // namespace canon
