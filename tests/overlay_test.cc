// Unit tests for the overlay substrate: the network container, ring views,
// link tables, greedy routers and path metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/population.h"
#include "overlay/routing.h"

namespace canon {
namespace {

OverlayNetwork small_net() {
  // IDs on a 4-bit ring: 0, 3, 5, 8, 10, 12 (mirrors the paper's Figure 2).
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0, 3, 5, 8, 10, 12}) {
    nodes.push_back(OverlayNode{id, DomainPath{}, -1});
  }
  return OverlayNetwork(IdSpace(4), std::move(nodes));
}

TEST(OverlayNetwork, SortsAndIndexesByIds) {
  const auto net = small_net();
  ASSERT_EQ(net.size(), 6u);
  for (std::uint32_t i = 1; i < net.size(); ++i) {
    EXPECT_LT(net.id(i - 1), net.id(i));
  }
  EXPECT_EQ(net.index_of(8), 3u);
  EXPECT_THROW(net.index_of(9), std::invalid_argument);
}

TEST(OverlayNetwork, RejectsDuplicatesAndOutOfRange) {
  std::vector<OverlayNode> dup = {{1, {}, -1}, {1, {}, -1}};
  EXPECT_THROW(OverlayNetwork(IdSpace(4), dup), std::invalid_argument);
  std::vector<OverlayNode> big = {{16, {}, -1}};
  EXPECT_THROW(OverlayNetwork(IdSpace(4), big), std::invalid_argument);
}

TEST(OverlayNetwork, Responsible) {
  const auto net = small_net();
  // Responsibility: largest ID <= key (paper footnote 3), wrapping.
  EXPECT_EQ(net.id(net.responsible(0)), 0u);
  EXPECT_EQ(net.id(net.responsible(1)), 0u);
  EXPECT_EQ(net.id(net.responsible(3)), 3u);
  EXPECT_EQ(net.id(net.responsible(4)), 3u);
  EXPECT_EQ(net.id(net.responsible(15)), 12u);
}

TEST(OverlayNetwork, XorClosestBruteForceAgreement) {
  Rng rng(21);
  PopulationSpec spec;
  spec.node_count = 300;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId key = net.space().wrap(rng());
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < net.size(); ++i) {
      if (net.space().xor_distance(net.id(i), key) <
          net.space().xor_distance(net.id(best), key)) {
        best = i;
      }
    }
    EXPECT_EQ(net.xor_closest(key), best) << "key=" << key;
  }
}

TEST(RingView, SuccessorWrapsAroundZero) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(net.id(ring.successor(13)), 0u);
  EXPECT_EQ(net.id(ring.successor(0)), 0u);
  EXPECT_EQ(net.id(ring.successor(1)), 3u);
}

TEST(RingView, FirstAtDistanceMatchesChordRule) {
  const auto net = small_net();
  const RingView ring = net.ring();
  // From node 0: closest node at distance >= 1, 2, 4 is node 3; >= 8 is 8.
  EXPECT_EQ(net.id(ring.first_at_distance(0, 1)), 3u);
  EXPECT_EQ(net.id(ring.first_at_distance(0, 4)), 5u);
  EXPECT_EQ(net.id(ring.first_at_distance(0, 8)), 8u);
  EXPECT_EQ(ring.first_at_distance(0, 17), RingView::kNone);
}

TEST(RingView, CountAndSelect) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(ring.count_in(0, 6), 3u);   // ids 0, 3, 5
  EXPECT_EQ(ring.count_in(13, 4), 1u);  // wraps: id 0
  EXPECT_EQ(ring.count_in(0, 16), 6u);  // full ring
  EXPECT_EQ(ring.count_in(6, 0), 0u);
  EXPECT_EQ(net.id(ring.select_in(0, 6, 1)), 3u);
  EXPECT_EQ(net.id(ring.select_in(13, 4, 0)), 0u);
  EXPECT_THROW(ring.select_in(0, 6, 3), std::out_of_range);
}

TEST(RingView, SuccessorDistance) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(ring.successor_distance(0), 3u);
  EXPECT_EQ(ring.successor_distance(12), 4u);  // wraps to 0
}

TEST(RingView, SingletonSuccessorDistanceUnbounded) {
  std::vector<OverlayNode> nodes = {{5, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  EXPECT_EQ(net.ring().successor_distance(5),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LinkTable, BuildSortsDedupsAndDropsSelfLinks) {
  const std::vector<NodeId> ids = {10, 20, 30, 40};
  const LinkTable t = LinkTable::build(ids, [](NodeIndex m, LinkRow& row) {
    if (m == 0) row = {3, 1, 0, 1};  // self-link and duplicate dropped
    if (m == 2) row = {2, 2};        // nothing left but self-links
  });
  ASSERT_EQ(t.node_count(), 4u);
  const auto row0 = t.neighbors(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 1u);
  EXPECT_EQ(row0[1], 3u);
  EXPECT_EQ(t.degree(2), 0u);
  EXPECT_TRUE(t.has_link(0, 1));
  EXPECT_FALSE(t.has_link(1, 0));
  EXPECT_EQ(t.total_links(), 2u);
  EXPECT_DOUBLE_EQ(t.mean_degree(), 0.5);
  // The same rule on a single row, as maintenance and the auditor use it.
  LinkRow row = {3, 1, 0, 1};
  sanitize_row(0, ids.size(), row);
  EXPECT_EQ(row, (LinkRow{1, 3}));
}

TEST(LinkTable, OutOfRangeTargetThrows) {
  const std::vector<NodeId> ids = {1, 2, 3};
  EXPECT_THROW(LinkTable::build(ids,
                                [](NodeIndex m, LinkRow& row) {
                                  if (m == 1) row.push_back(3);
                                }),
               std::out_of_range);
  LinkRow row = {0, 3};
  EXPECT_THROW(sanitize_row(1, ids.size(), row), std::out_of_range);
}

TEST(LinkTable, EmptyAndSingleNodeTables) {
  const LinkTable empty =
      LinkTable::build({}, [](NodeIndex, LinkRow&) { FAIL(); });
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.total_links(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean_degree(), 0.0);
  EXPECT_TRUE(empty == LinkTable());

  const std::vector<NodeId> one = {7};
  const LinkTable single =
      LinkTable::build(one, [](NodeIndex m, LinkRow& row) { row = {m, m}; });
  EXPECT_EQ(single.node_count(), 1u);
  EXPECT_EQ(single.degree(0), 0u);
  EXPECT_TRUE(single.neighbor_ids(0).empty());
}

TEST(LinkTable, ShardedBuildMatchesPerNodeReference) {
  // A population spanning several build shards, the last one partial:
  // every row equals the per-node reference (sorted, unique, no self)
  // with inline IDs aligned to its targets, at any thread count, and the
  // progress hook counts every shard.
  const std::size_t n = 2000;
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = 3 * i + 1;
  const auto add_links = [n](NodeIndex m, LinkRow& row) {
    std::uint64_t x = m * 0x9e3779b97f4a7c15ULL + 1;
    for (int j = 0; j < 12; ++j) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ULL;
      row.push_back(static_cast<NodeIndex>(x % n));
      if (j % 4 == 0) row.push_back(m);           // self-link
      if (j % 3 == 0) row.push_back(row.front());  // duplicate
    }
  };
  LinkTable baseline;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> total_shards{0};
    const LinkTable t = LinkTable::build(
        ids, add_links, [&](std::size_t done, std::size_t shards) {
          ++calls;
          total_shards = shards;
          EXPECT_LE(done, shards);
        });
    EXPECT_GT(total_shards.load(), 1u) << "population fits one shard";
    EXPECT_EQ(calls.load(), total_shards.load());
    ASSERT_EQ(t.node_count(), n);
    for (NodeIndex m = 0; m < n; ++m) {
      LinkRow want;
      add_links(m, want);
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      want.erase(std::remove(want.begin(), want.end(), m), want.end());
      const auto got = t.neighbors(m);
      ASSERT_EQ(LinkRow(got.begin(), got.end()), want) << m;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(t.neighbor_ids(m)[k], ids[got[k]]);
      }
    }
    if (threads == 1) {
      baseline = t;
    } else {
      EXPECT_TRUE(t == baseline) << "threads=" << threads;
    }
  }
  set_parallel_threads(0);
}

// Builds the full Chord links on the small ring by brute force so the
// routers can be tested independently of the dht module.
LinkTable full_chord_links(const OverlayNetwork& net) {
  const RingView ring = net.ring();
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    for (int k = 0; k < net.space().bits(); ++k) {
      const auto v = ring.first_at_distance(net.id(m), std::uint64_t{1} << k);
      if (v != RingView::kNone) row.push_back(v);
    }
  });
}

TEST(RingRouter, ReachesResponsibleNodeForAllKeys) {
  const auto net = small_net();
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  for (std::uint32_t from = 0; from < net.size(); ++from) {
    for (NodeId key = 0; key < 16; ++key) {
      const Route r = router.route(from, key);
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.terminal(), net.responsible(key));
      EXPECT_EQ(r.source(), from);
    }
  }
}

TEST(RingRouter, NeverOvershoots) {
  const auto net = small_net();
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  for (std::uint32_t from = 0; from < net.size(); ++from) {
    for (NodeId key = 0; key < 16; ++key) {
      const Route r = router.route(from, key);
      // Clockwise distance to the key must strictly decrease along the path.
      for (std::size_t i = 1; i < r.path.size(); ++i) {
        EXPECT_LT(net.space().ring_distance(net.id(r.path[i]), key),
                  net.space().ring_distance(net.id(r.path[i - 1]), key));
      }
    }
  }
}

TEST(RingRouter, LookaheadNoWorseThanGreedy) {
  Rng rng(31);
  PopulationSpec spec;
  spec.node_count = 256;
  spec.id_bits = 20;
  const auto net = make_population(spec, rng);
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t from =
        static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route greedy = router.route(from, key);
    const Route ahead = router.route_lookahead(from, key);
    EXPECT_TRUE(greedy.ok);
    EXPECT_TRUE(ahead.ok);
    EXPECT_EQ(ahead.terminal(), greedy.terminal());
    // Committing to the best 2-step plan is at least as fast as two greedy
    // steps, so the lookahead route is at most one hop longer overall.
    EXPECT_LE(ahead.hops(), greedy.hops() + 1);
  }
}

TEST(RingRouter, ValidatesLinkTable) {
  const auto net = small_net();
  const std::vector<NodeId> three = {0, 3, 5};
  const LinkTable wrong_size =
      LinkTable::build(three, [](NodeIndex, LinkRow&) {});
  EXPECT_THROW(RingRouter(net, wrong_size), std::invalid_argument);
}

TEST(XorRouter, ReachesXorClosestWithFullBuckets) {
  Rng rng(41);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  // Deterministic Kademlia-complete table: for every k, link to the
  // XOR-closest node in bucket [2^k, 2^{k+1}).
  const LinkTable t = LinkTable::build(net.ids(), [&](NodeIndex m,
                                                       LinkRow& row) {
    for (std::uint32_t v = 0; v < net.size(); ++v) {
      if (m == v) continue;
      // Link if v is the closest node in its bucket.
      const std::uint64_t d = net.space().xor_distance(net.id(m), net.id(v));
      bool closest = true;
      for (std::uint32_t w = 0; w < net.size(); ++w) {
        if (w == m || w == v) continue;
        const std::uint64_t dw =
            net.space().xor_distance(net.id(m), net.id(w));
        if (floor_log2(dw) == floor_log2(d) && dw < d) closest = false;
      }
      if (closest) row.push_back(v);
    }
  });
  const XorRouter router(net, t);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t from =
        static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.xor_closest(key));
    // XOR distance strictly decreases hop by hop.
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      EXPECT_LT(net.space().xor_distance(net.id(r.path[i]), key),
                net.space().xor_distance(net.id(r.path[i - 1]), key));
    }
  }
}

TEST(Metrics, PathCostSumsHops) {
  Route r;
  r.path = {0, 2, 5};
  const auto cost = [](std::uint32_t a, std::uint32_t b) {
    return static_cast<double>(a + b);
  };
  EXPECT_DOUBLE_EQ(path_cost(r, cost), 2 + 7);
}

TEST(Metrics, HopOverlapFraction) {
  Route first;
  first.path = {0, 4, 7, 9};
  Route second;
  second.path = {1, 5, 7, 9};  // meets `first` at node 7
  const auto f = hop_overlap_fraction(first, second);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(*f, 1.0 / 3.0);

  Route trivial;
  trivial.path = {3};
  EXPECT_FALSE(hop_overlap_fraction(first, trivial).has_value());

  Route disjoint;
  disjoint.path = {1, 2, 3};
  EXPECT_DOUBLE_EQ(*hop_overlap_fraction(first, disjoint), 0.0);
}

TEST(Metrics, CostOverlapFraction) {
  Route first;
  first.path = {0, 4, 7, 9};
  Route second;
  second.path = {1, 5, 7, 9};
  const auto cost = [](std::uint32_t, std::uint32_t) { return 2.0; };
  const auto f = cost_overlap_fraction(first, second, cost);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(*f, 1.0 / 3.0);
}

TEST(Metrics, MulticastTreeDedupesEdges) {
  MulticastTree tree;
  Route a;
  a.path = {0, 2, 3};
  Route b;
  b.path = {1, 2, 3};  // shares edge 2->3
  tree.add_route(a);
  tree.add_route(b);
  EXPECT_EQ(tree.edge_count(), 3u);
}

TEST(Metrics, MulticastInterDomainEdges) {
  std::vector<OverlayNode> nodes = {{0, DomainPath({0}), -1},
                                    {4, DomainPath({0}), -1},
                                    {8, DomainPath({1}), -1},
                                    {12, DomainPath({1}), -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  MulticastTree tree;
  Route r;
  r.path = {0, 1, 2, 3};  // one edge crosses the level-1 boundary
  tree.add_route(r);
  EXPECT_EQ(tree.inter_domain_edges(net, 1), 1u);
  EXPECT_EQ(tree.inter_domain_edges(net, 0), 0u);
}

TEST(Population, BuildsRequestedShape) {
  Rng rng(51);
  PopulationSpec spec;
  spec.node_count = 500;
  spec.id_bits = 24;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  EXPECT_EQ(net.size(), 500u);
  EXPECT_EQ(net.space().bits(), 24);
  EXPECT_EQ(net.domains().max_depth(), 2);
}

}  // namespace
}  // namespace canon
