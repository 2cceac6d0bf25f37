// Property-based sweeps: the paper's structural invariants checked across
// a grid of population shapes (size x levels x fanout x ID width x
// placement). These complement the per-module unit tests with broad,
// randomized coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "canon/cacophony.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "common/rng.h"
#include "dht/chord.h"
#include "overlay/population.h"
#include "overlay/routing.h"

namespace canon {
namespace {

// (nodes, levels, fanout, id_bits, zipf?)
using Shape = std::tuple<int, int, int, int, bool>;

class ShapeTest : public ::testing::TestWithParam<Shape> {
 protected:
  OverlayNetwork build() {
    const auto [n, levels, fanout, bits, zipf] = GetParam();
    rng_.reseed(0xC0FFEE ^ static_cast<std::uint64_t>(n * 31 + levels * 7 +
                                                      fanout * 3 + bits));
    PopulationSpec spec;
    spec.node_count = static_cast<std::size_t>(n);
    spec.id_bits = bits;
    spec.hierarchy.levels = levels;
    spec.hierarchy.fanout = fanout;
    spec.hierarchy.placement = zipf ? Placement::kZipf : Placement::kUniform;
    return make_population(spec, rng_);
  }

  Rng rng_{1};
};

TEST_P(ShapeTest, CrescendoRoutesAlwaysSucceed) {
  const auto net = build();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 150; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net.size()));
    const NodeId key = net.space().wrap(rng_());
    const Route r = router.route(from, key);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST_P(ShapeTest, CrescendoDegreeBoundTheorem2) {
  const auto net = build();
  const auto links = build_crescendo(net);
  const auto [n, levels, fanout, bits, zipf] = GetParam();
  (void)fanout;
  (void)bits;
  (void)zipf;
  const double bound = std::log2(static_cast<double>(n - 1)) +
                       std::min<double>(levels, std::log2(n));
  EXPECT_LE(links.mean_degree(), bound);
}

TEST_P(ShapeTest, CrescendoMaxDegreeIsLogarithmicWhp) {
  // Theorem 3: O(log n) w.h.p. — we allow a 4x constant.
  const auto net = build();
  const auto links = build_crescendo(net);
  const auto [n, levels, fanout, bits, zipf] = GetParam();
  (void)levels;
  (void)fanout;
  (void)bits;
  (void)zipf;
  EXPECT_LE(static_cast<double>(links.degree_histogram().max()),
            4 * std::log2(static_cast<double>(n)) + 8);
}

TEST_P(ShapeTest, CrescendoMaxHopsIsLogarithmicWhp) {
  // Theorem 6: O(log n) w.h.p.
  const auto net = build();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const auto [n, levels, fanout, bits, zipf] = GetParam();
  (void)levels;
  (void)fanout;
  (void)bits;
  (void)zipf;
  int max_hops = 0;
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net.size()));
    const NodeId key = net.space().wrap(rng_());
    max_hops = std::max(max_hops, router.route(from, key).hops());
  }
  EXPECT_LE(max_hops, 3 * std::log2(static_cast<double>(n)) + 8);
}

TEST_P(ShapeTest, EveryDomainIsARoutableSubDht) {
  // The core Canon claim: the nodes of ANY domain form a complete DHT by
  // themselves — routing between two members restricted to the domain's
  // member links always reaches the member responsible within the domain.
  const auto net = build();
  const auto links = build_crescendo(net);
  const DomainTree& dom = net.domains();
  for (int d = 0; d < dom.domain_count(); ++d) {
    const RingView ring = net.domain_ring(d);
    if (ring.size() < 2) continue;
    // Spot-check: successor completeness implies ring routability.
    for (std::size_t i = 0; i < ring.size(); i += std::max<std::size_t>(
             1, ring.size() / 16)) {
      const std::uint32_t m = ring.at(i);
      const std::uint32_t succ = ring.first_at_distance(net.id(m), 1);
      ASSERT_TRUE(links.has_link(m, succ))
          << "domain " << d << " node " << m;
    }
  }
}

TEST_P(ShapeTest, MergeLinksRespectConditionB) {
  // Every link to a node outside the leaf domain is strictly shorter than
  // the leaf-domain successor distance.
  const auto net = build();
  const auto links = build_crescendo(net);
  const DomainTree& dom = net.domains();
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const int leaf_depth = dom.node_depth(m);
    if (leaf_depth == 0) continue;
    const RingView leaf_ring =
        net.domain_ring(dom.domain_chain(m).back());
    const std::uint64_t limit = leaf_ring.successor_distance(net.id(m));
    for (const auto v : links.neighbors(m)) {
      if (net.lca_level(m, v) >= leaf_depth) continue;
      ASSERT_LT(net.space().ring_distance(net.id(m), net.id(v)), limit)
          << "node " << m << " -> " << v;
    }
  }
}

TEST_P(ShapeTest, RoutingPathClockwiseMonotone) {
  const auto net = build();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 60; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net.size()));
    const NodeId key = net.space().wrap(rng_());
    const Route r = router.route(from, key);
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      ASSERT_LT(net.space().ring_distance(net.id(r.path[i]), key),
                net.space().ring_distance(net.id(r.path[i - 1]), key));
    }
  }
}

TEST_P(ShapeTest, CacophonyAndKandyRouteEverywhere) {
  const auto net = build();
  Rng build_rng(99);
  const auto caco = build_cacophony(net, build_rng);
  const auto kandy = build_kandy(net);
  const RingRouter ring_router(net, caco);
  const XorRouter xor_router(net, kandy);
  for (int t = 0; t < 80; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net.size()));
    const NodeId key = net.space().wrap(rng_());
    ASSERT_TRUE(ring_router.route(from, key).ok);
    ASSERT_TRUE(xor_router.route(from, key).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShapeTest,
    ::testing::Values(
        // Tiny populations and corner shapes.
        Shape{2, 1, 1, 8, false}, Shape{3, 2, 2, 8, false},
        Shape{10, 5, 2, 16, true}, Shape{17, 3, 10, 16, false},
        // Mid-size across levels, fanouts, widths and placements.
        Shape{200, 1, 10, 32, true}, Shape{300, 2, 3, 24, false},
        Shape{400, 3, 10, 32, true}, Shape{500, 4, 4, 32, true},
        Shape{600, 5, 10, 32, false}, Shape{700, 5, 2, 48, true},
        // Dense ID space (collision-heavy shapes).
        Shape{100, 3, 4, 10, true}, Shape{60, 2, 8, 8, false}));

TEST(Degenerate, SingleNodeNetworkHasNoLinksAndRoutesToItself) {
  std::vector<OverlayNode> one = {{5, DomainPath({1, 2}), -1}};
  const OverlayNetwork net(IdSpace(8), std::move(one));
  const auto links = build_crescendo(net);
  EXPECT_EQ(links.total_links(), 0u);
  const RingRouter router(net, links);
  const Route r = router.route(0, 200);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.terminal(), 0u);
}

TEST(Degenerate, TwoNodesLinkEachOther) {
  std::vector<OverlayNode> two = {{5, DomainPath({0}), -1},
                                  {200, DomainPath({1}), -1}};
  const OverlayNetwork net(IdSpace(8), std::move(two));
  const auto links = build_crescendo(net);
  EXPECT_TRUE(links.has_link(0, 1));
  EXPECT_TRUE(links.has_link(1, 0));
}

TEST(Degenerate, AllNodesInOneLeafDomainIsChord) {
  Rng rng(31337);
  std::vector<OverlayNode> nodes;
  const auto ids = sample_unique_ids(64, IdSpace(16), rng);
  for (const NodeId id : ids) nodes.push_back({id, DomainPath({3, 1}), -1});
  const OverlayNetwork net(IdSpace(16), std::move(nodes));
  const auto crescendo = build_crescendo(net);
  const auto chord = build_chord(net);
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto a = crescendo.neighbors(m);
    const auto b = chord.neighbors(m);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

}  // namespace
}  // namespace canon
