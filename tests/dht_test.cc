// Unit and property tests for the flat DHT builders: Chord fingers,
// nondeterministic Chord, Symphony, Kademlia buckets, XOR range utilities
// and the prefix-tree CAN.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/nondet_chord.h"
#include "dht/symphony.h"
#include "dht/xor_util.h"
#include "link_oracles.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "zone_oracle.h"

namespace canon {
namespace {

OverlayNetwork figure2_ring_a() {
  // Ring A of the paper's Figure 2: nodes 0, 5, 10, 12 on a 4-bit ring.
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0, 5, 10, 12}) nodes.push_back({id, {}, -1});
  return OverlayNetwork(IdSpace(4), std::move(nodes));
}

TEST(Chord, Figure2LinksOfNode0) {
  // The paper: node 0 in ring A links to node 5 (distances 1, 2, 4) and
  // node 10 (distance 8).
  const auto net = figure2_ring_a();
  const auto links = build_chord(net);
  const auto nb = links.neighbors(net.index_of(0));
  std::set<NodeId> ids;
  for (const auto v : nb) ids.insert(net.id(v));
  EXPECT_EQ(ids, (std::set<NodeId>{5, 10}));
}

TEST(Chord, Figure2LinksOfNode8InRingB) {
  // Ring B: nodes 2, 3, 8, 13. Node 8 links to 13 (distances 1, 2, 4) and
  // 2 (distance 8).
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {2, 3, 8, 13}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_chord(net);
  std::set<NodeId> ids;
  for (const auto v : links.neighbors(net.index_of(8))) ids.insert(net.id(v));
  EXPECT_EQ(ids, (std::set<NodeId>{13, 2}));
}

TEST(Chord, AllRoutesSucceed) {
  Rng rng(101);
  PopulationSpec spec;
  spec.node_count = 400;
  spec.id_bits = 24;
  const auto net = make_population(spec, rng);
  const auto links = build_chord(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST(Chord, MeanDegreeWithinTheorem1Bound) {
  // Theorem 1: expected degree <= log2(n-1) + 1.
  Rng rng(102);
  for (const std::size_t n : {64u, 256u, 1024u}) {
    PopulationSpec spec;
    spec.node_count = n;
    const auto net = make_population(spec, rng);
    const auto links = build_chord(net);
    const double bound = std::log2(static_cast<double>(n - 1)) + 1;
    EXPECT_LE(links.mean_degree(), bound)
        << "n=" << n << " mean=" << links.mean_degree();
  }
}

TEST(Chord, MeanHopsWithinTheorem4Bound) {
  // Theorem 4: expected routing hops <= 0.5*log2(n-1) + 0.5.
  Rng rng(103);
  PopulationSpec spec;
  spec.node_count = 1024;
  const auto net = make_population(spec, rng);
  const auto links = build_chord(net);
  const RingRouter router(net, links);
  double total = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    total += router.route(from, key).hops();
  }
  const double bound = 0.5 * std::log2(1023.0) + 0.5;
  EXPECT_LE(total / kTrials, bound + 0.2);  // small sampling slack
}

TEST(NondetChord, RoutesSucceedAndDegreeLogarithmic) {
  Rng rng(104);
  PopulationSpec spec;
  spec.node_count = 500;
  const auto net = make_population(spec, rng);
  const auto links = build_nondet_chord(net, rng);
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
  }
  EXPECT_LE(links.mean_degree(), std::log2(499.0) + 2);
}

TEST(NondetChord, LinksRespectBucketRanges) {
  Rng rng(105);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  const auto links = build_nondet_chord(net, rng);
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    // At most one link per power-of-two distance range plus the successor.
    std::map<int, int> per_bucket;
    for (const auto v : links.neighbors(m)) {
      const auto d = net.space().ring_distance(net.id(m), net.id(v));
      ++per_bucket[floor_log2(d)];
    }
    for (const auto& [k, c] : per_bucket) {
      EXPECT_LE(c, 2) << "bucket " << k;  // random pick + successor overlap
    }
  }
}

TEST(Symphony, RoutesSucceed) {
  Rng rng(106);
  PopulationSpec spec;
  spec.node_count = 500;
  const auto net = make_population(spec, rng);
  const auto links = build_symphony(net, rng);
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
  }
}

TEST(Symphony, DegreeIsAboutLogN) {
  Rng rng(107);
  PopulationSpec spec;
  spec.node_count = 1024;
  const auto net = make_population(spec, rng);
  const auto links = build_symphony(net, rng);
  // floor(log2 1024) = 10 draws + successor, some draws collide/self-hit.
  EXPECT_GE(links.mean_degree(), 6.0);
  EXPECT_LE(links.mean_degree(), 11.5);
}

TEST(Symphony, LookaheadReducesMeanHops) {
  Rng rng(108);
  PopulationSpec spec;
  spec.node_count = 2048;
  const auto net = make_population(spec, rng);
  const auto links = build_symphony(net, rng);
  const RingRouter router(net, links);
  const LookaheadRouter lookahead(net, links);
  double greedy = 0;
  double ahead = 0;
  const int kTrials = 500;
  for (int t = 0; t < kTrials; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    greedy += router.route(from, key).hops();
    ahead += lookahead.route(from, key).hops();
  }
  // The paper quotes ~40% fewer hops; accept any clear improvement.
  EXPECT_LT(ahead, greedy * 0.85);
}

TEST(XorUtil, BallRangesCoverExactlyTheBall) {
  const IdSpace space(10);
  Rng rng(109);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId center = space.wrap(rng());
    const std::uint64_t radius = rng.uniform(1024);
    std::set<NodeId> covered;
    for_each_xor_ball_range(center, radius, space, [&](const IdRange& r) {
      EXPECT_EQ(r.lo % r.size, 0u) << "range must be aligned";
      for (std::uint64_t i = 0; i < r.size; ++i) covered.insert(r.lo + i);
    });
    std::set<NodeId> expected;
    for (NodeId x = 0; x < 1024; ++x) {
      if (space.xor_distance(center, x) < radius) expected.insert(x);
    }
    EXPECT_EQ(covered, expected) << "center=" << center << " r=" << radius;
  }
}

TEST(XorUtil, ClosestInRangeMatchesBruteForce) {
  Rng rng(110);
  PopulationSpec spec;
  spec.node_count = 300;
  spec.id_bits = 12;
  const auto net = make_population(spec, rng);
  const RingView ring = net.ring();
  for (int trial = 0; trial < 200; ++trial) {
    const int len_bits = static_cast<int>(rng.uniform(12));
    const std::uint64_t size = std::uint64_t{1} << len_bits;
    const NodeId lo = (net.space().wrap(rng()) / size) * size;
    const NodeId key = net.space().wrap(rng());
    const auto got = xor_closest_in_range(net, ring, lo, size, key);
    std::uint32_t want = RingView::kNone;
    for (std::uint32_t i = 0; i < net.size(); ++i) {
      if (net.id(i) < lo || net.id(i) >= lo + size) continue;
      if (want == RingView::kNone ||
          net.space().xor_distance(net.id(i), key) <
              net.space().xor_distance(net.id(want), key)) {
        want = i;
      }
    }
    EXPECT_EQ(got, want) << "lo=" << lo << " size=" << size << " key=" << key;
  }
}

TEST(Kademlia, LinksOnePerBucketAndClosestIsClosest) {
  Rng rng(111);
  PopulationSpec spec;
  spec.node_count = 300;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  const auto links = build_kademlia(net);
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    std::map<int, std::uint64_t> bucket_min;
    for (std::uint32_t v = 0; v < net.size(); ++v) {
      if (v == m) continue;
      const auto d = net.space().xor_distance(net.id(m), net.id(v));
      const int k = floor_log2(d);
      if (!bucket_min.contains(k) || d < bucket_min[k]) bucket_min[k] = d;
    }
    std::map<int, int> seen;
    for (const auto v : links.neighbors(m)) {
      const auto d = net.space().xor_distance(net.id(m), net.id(v));
      const int k = floor_log2(d);
      ++seen[k];
      EXPECT_EQ(d, bucket_min[k]) << "node " << m << " bucket " << k;
    }
    // One link per non-empty bucket.
    EXPECT_EQ(seen.size(), bucket_min.size());
    for (const auto& [k, c] : seen) EXPECT_EQ(c, 1);
  }
}

TEST(Kademlia, GreedyXorRoutingSucceeds) {
  Rng rng(112);
  PopulationSpec spec;
  spec.node_count = 600;
  const auto net = make_population(spec, rng);
  const auto links = build_kademlia(net);
  const XorRouter router(net, links);
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.xor_closest(key));
  }
}

TEST(Kademlia, ClosestXorDistanceMatchesBruteForce) {
  Rng rng(113);
  PopulationSpec spec;
  spec.node_count = 100;
  spec.id_bits = 14;
  const auto net = make_population(spec, rng);
  const RingView ring = net.ring();
  for (std::uint32_t m = 0; m < 20; ++m) {
    std::uint64_t want = kNoLimit;
    for (std::uint32_t v = 0; v < net.size(); ++v) {
      if (v != m) {
        want = std::min(want, net.space().xor_distance(net.id(m), net.id(v)));
      }
    }
    EXPECT_EQ(closest_xor_distance(net, ring, m), want);
  }
}

// The flat builders against the linear-scan oracles of link_oracles.h, on
// small and extreme rings (IDs 0 and 2^bits - 1 always present).
TEST(BruteForceOracle, ChordFingersMatchLinearScan) {
  for (const oracle::Case& c : oracle::cases({1})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 1);
    EXPECT_TRUE(oracle::rows_match(net, build_chord(net), [&](NodeIndex m) {
      return oracle::crescendo_links(net, m);
    })) << c.name();
  }
}

TEST(BruteForceOracle, NondetChordBucketDrawsMatchLinearScan) {
  for (const oracle::Case& c : oracle::cases({1})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 2);
    Rng rng(c.n + 3);
    const Rng base = rng;
    EXPECT_TRUE(oracle::rows_match(
        net, build_nondet_chord(net, rng), [&](NodeIndex m) {
          return oracle::nondet_crescendo_links(net, m, base.fork(m));
        }))
        << c.name();
  }
}

TEST(BruteForceOracle, SymphonyDrawsMatchLinearScan) {
  for (const oracle::Case& c : oracle::cases({1})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 5);
    Rng rng(c.n + 6);
    const Rng base = rng;
    EXPECT_TRUE(oracle::rows_match(
        net, build_symphony(net, rng), [&](NodeIndex m) {
          return oracle::cacophony_links(net, m, base.fork(m));
        }))
        << c.name();
  }
}

TEST(BruteForceOracle, KademliaClosestPerBucketMatchesLinearScan) {
  for (const oracle::Case& c : oracle::cases({1})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 4);
    EXPECT_TRUE(oracle::rows_match(
        net, build_kademlia(net), [&](NodeIndex m) {
          return oracle::kandy_closest_links(net, m, MergePolicy::kFrugal);
        }))
        << c.name();
    const RingView ring = net.ring();
    for (NodeIndex m = 0; m < net.size(); ++m) {
      const auto mates = oracle::others(net, m, 0);
      std::uint64_t want = kNoLimit;
      for (const NodeIndex v : mates) {
        want = std::min(want, net.space().xor_distance(net.id(m), net.id(v)));
      }
      ASSERT_EQ(closest_xor_distance(net, ring, m), want)
          << c.name() << " node " << m;
    }
  }
}

TEST(ZoneTree, PartitionsTheSpace) {
  Rng rng(114);
  PopulationSpec spec;
  spec.node_count = 60;
  spec.id_bits = 10;
  const auto net = make_population(spec, rng);
  const ZoneTree tree(net, net.ring().members());
  // Every point has exactly one owner, and each owner's zones sum to its
  // share of the space.
  std::map<std::uint32_t, std::uint64_t> zone_points;
  for (NodeId p = 0; p < 1024; ++p) ++zone_points[tree.owner_of(p)];
  EXPECT_EQ(zone_points.size(), net.size());
  std::uint64_t total = 0;
  for (const auto& [owner, count] : zone_points) {
    std::uint64_t owned = 0;
    for (const auto& z : tree.zones_of(owner)) {
      owned += std::uint64_t{1} << (10 - z.len);
    }
    EXPECT_EQ(count, owned);
    // The primary zone must contain the owner's own ID.
    const auto z = tree.zone(owner);
    const NodeId lo = z.prefix;
    const NodeId hi = z.prefix + (std::uint64_t{1} << (10 - z.len));
    EXPECT_GE(net.id(owner), lo);
    EXPECT_LT(net.id(owner), hi);
    total += count;
  }
  EXPECT_EQ(total, 1024u);
}

TEST(ZoneTree, NeighborsAreSymmetric) {
  Rng rng(115);
  PopulationSpec spec;
  spec.node_count = 80;
  spec.id_bits = 12;
  const auto net = make_population(spec, rng);
  const ZoneTree tree(net, net.ring().members());
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    for (const auto v : tree.neighbors(m)) {
      const auto back = tree.neighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), m) != back.end())
          << m << " -> " << v << " not symmetric";
    }
  }
}

TEST(ZoneTree, DegreeIsLogarithmic) {
  Rng rng(116);
  PopulationSpec spec;
  spec.node_count = 1024;
  const auto net = make_population(spec, rng);
  const LinkTable links = build_can(net);
  // Expected degree ~ zone depth ~ log2 n; allow generous slack.
  EXPECT_LE(links.mean_degree(), 2.5 * std::log2(1024.0));
  EXPECT_GE(links.mean_degree(), 0.5 * std::log2(1024.0));
}

TEST(Can, RoutingReachesZoneOwner) {
  Rng rng(117);
  PopulationSpec spec;
  spec.node_count = 500;
  const auto net = make_population(spec, rng);
  const LinkTable links = build_can(net);
  const CanRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), router.kernel().tree().owner_of(key));
  }
}

TEST(Can, HopsAreLogarithmic) {
  Rng rng(118);
  PopulationSpec spec;
  spec.node_count = 1024;
  const auto net = make_population(spec, rng);
  const LinkTable links = build_can(net);
  const CanRouter router(net, links);
  Summary hops;
  for (int t = 0; t < 500; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    ASSERT_TRUE(r.ok);
    hops.add(r.hops());
  }
  EXPECT_LE(hops.mean(), std::log2(1024.0));
}

TEST(ZoneTree, RejectsEmptyAndNonMember) {
  Rng rng(119);
  PopulationSpec spec;
  spec.node_count = 4;
  const auto net = make_population(spec, rng);
  EXPECT_THROW(ZoneTree(net, {}), std::invalid_argument);
  std::vector<std::uint32_t> some = {0, 1};
  const ZoneTree tree(net, some);
  EXPECT_TRUE(tree.contains(1));
  EXPECT_FALSE(tree.contains(3));
  EXPECT_THROW(tree.zone(3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ZoneTree's closed form against the zone trie (tests/zone_oracle.h)

/// Every ZoneTree query against the trie on one member list: each member's
/// zones (values and order), faces (as sets), neighbors and prefix matches,
/// and the owners of `keys`, of every member ID and of its one-bit flips.
::testing::AssertionResult matches_trie(const OverlayNetwork& net,
                                        std::span<const NodeIndex> members,
                                        const std::vector<NodeId>& keys) {
  const ZoneTree tree(net, members);
  const oracle::ZoneTrie trie(net, members);
  const int bits = net.space().bits();
  const auto same = [](const std::vector<ZoneTree::Zone>& a,
                       const std::vector<ZoneTree::Zone>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const ZoneTree::Zone& x, const ZoneTree::Zone& y) {
                        return x.prefix == y.prefix && x.len == y.len;
                      });
  };
  for (const NodeIndex m : members) {
    const auto fail = [&](const char* what) {
      return ::testing::AssertionFailure()
             << what << " of node " << m << " (id " << net.id(m) << ", "
             << members.size() << " members, " << bits << " bits)";
    };
    const ZoneTree::Zone z = tree.zone(m);
    if (!same({z}, {trie.zone(m)})) return fail("zone");
    if (!same(tree.zones_of(m), trie.zones_of(m))) return fail("zones_of");
    for (int pos = 0; pos < z.len; ++pos) {
      std::vector<NodeIndex> face;
      tree.face_neighbors(m, pos, face);
      if (std::set<NodeIndex>(face.begin(), face.end()) !=
          trie.face_neighbors(m, pos)) {
        return fail("face_neighbors");
      }
    }
    if (tree.neighbors(m) != trie.neighbors(m)) return fail("neighbors");
    std::vector<NodeId> probes = keys;
    probes.push_back(net.id(m));
    for (int b = 0; b < bits; ++b) probes.push_back(net.id(m) ^ NodeId{1} << b);
    for (const NodeId key : probes) {
      if (tree.match_len(m, key) != trie.match_len(m, key)) {
        return fail("match_len") << " at key " << key;
      }
      if (tree.owner_of(key) != trie.owner_of(key)) {
        return fail("owner_of") << " at key " << key;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// n distinct IDs in a `bits`-bit space, `levels` deep with fanout 3.
/// `shape` 0 draws uniform IDs; 1 masks their low bits; 2 clusters them
/// under one random prefix, so that empty siblings run deep.
OverlayNetwork zone_population(int bits, std::size_t n, int levels, int shape,
                               std::uint64_t seed) {
  const IdSpace space(bits);
  Rng rng(seed);
  // Enough random bits for n distinct IDs (8n values).
  const int keep = std::min(bits, floor_log2(n) + 3);
  const NodeId low = (NodeId{1} << keep) - 1;
  const NodeId base = space.wrap(rng());
  std::set<NodeId> ids;
  while (ids.size() < n) {
    const NodeId r = space.wrap(rng());
    if (shape == 0) ids.insert(r);
    if (shape == 1) ids.insert(r & ~(space.mask() >> keep) & space.mask());
    if (shape == 2) ids.insert((base & ~low) | (r & low));
  }
  std::vector<OverlayNode> nodes;
  for (const NodeId id : ids) {
    std::vector<std::uint16_t> path;
    for (int l = 1; l < levels; ++l) {
      path.push_back(static_cast<std::uint16_t>(rng.uniform(3)));
    }
    nodes.push_back({id, DomainPath(std::move(path)), -1});
  }
  return OverlayNetwork(space, std::move(nodes));
}

TEST(ZoneTreeOracle, FixedCaseMatchesTrie) {
  // {1, 2, 3, 5} in 8 bits: all four share the prefix 00000, so node 5,
  // the largest, owns the five empty 1-halves above it.
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {1, 2, 3, 5}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(8), std::move(nodes));
  const ZoneTree tree(net, net.ring().members());
  const NodeIndex five = net.index_of(5);
  const std::vector<std::pair<NodeId, int>> want = {
      {0x04, 6}, {0x80, 1}, {0x40, 2}, {0x20, 3}, {0x10, 4}, {0x08, 5}};
  std::vector<std::pair<NodeId, int>> got;
  for (const auto& z : tree.zones_of(five)) got.emplace_back(z.prefix, z.len);
  EXPECT_EQ(got, want);
  EXPECT_EQ(tree.zone(net.index_of(1)).len, 7);
  EXPECT_EQ(tree.zone(net.index_of(2)).len, 8);
  EXPECT_EQ(tree.owner_of(0xFF), five);
  EXPECT_EQ(tree.owner_of(0x00), net.index_of(1));
  EXPECT_EQ(tree.match_len(five, 0x40), 2);  // enters the 01 block
  EXPECT_TRUE(matches_trie(net, net.ring().members(), {0x00, 0x7F, 0xFF}));

  // Two 64-bit IDs one bit apart: 64-bit primary zones, and the smaller
  // owns the empty 0-halves where its bits are 1.
  std::vector<OverlayNode> pair;
  for (const NodeId id : {NodeId{6}, NodeId{7}}) pair.push_back({id, {}, -1});
  const OverlayNetwork wide(IdSpace(64), std::move(pair));
  const ZoneTree wide_tree(wide, wide.ring().members());
  EXPECT_EQ(wide_tree.zone(0).len, 64);
  EXPECT_EQ(wide_tree.zones_of(0).size(), 3u);
  EXPECT_EQ(wide_tree.zones_of(1).size(), 62u);
  EXPECT_TRUE(matches_trie(wide, wide.ring().members(),
                           {0, ~NodeId{0}, NodeId{1} << 63}));
}

TEST(ZoneTreeOracle, RandomizedDomainsMatchTrie) {
  for (const int bits : {5, 8, 12, 32, 64}) {
    for (const std::size_t n : {1u, 2u, 3u, 20u, 120u}) {
      if (bits < 64 && n * 8 > (std::uint64_t{1} << bits)) continue;
      for (const int levels : {1, 3}) {
        for (const int shape : {0, 1, 2}) {
          const std::uint64_t seed = n * 131 + bits * 7 + levels * 3 + shape;
          const auto net = zone_population(bits, n, levels, shape, seed);
          Rng rng(seed + 1);
          std::vector<NodeId> keys;
          for (int k = 0; k < 8; ++k) keys.push_back(net.space().wrap(rng()));
          const DomainTree& dom = net.domains();
          for (int d = 0; d < dom.domain_count(); ++d) {
            const auto& members = dom.domain(d).members;
            ASSERT_TRUE(matches_trie(net, members, keys))
                << "bits=" << bits << " n=" << n << " levels=" << levels
                << " shape=" << shape << " domain " << d;
          }
        }
      }
    }
  }
}

TEST(ZoneTreeOracle, CanTableMatchesTrieRows) {
  for (const int bits : {8, 32, 64}) {
    for (const int shape : {0, 2}) {
      const auto net = zone_population(bits, 60, 1, shape, bits + shape);
      const oracle::ZoneTrie trie(net, net.ring().members());
      EXPECT_TRUE(oracle::rows_match(net, build_can(net), [&](NodeIndex m) {
        const auto row = trie.neighbors(m);
        return std::set<NodeIndex>(row.begin(), row.end());
      })) << "bits=" << bits << " shape=" << shape;
    }
  }
}

}  // namespace
}  // namespace canon
