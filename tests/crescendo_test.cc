// Tests for Crescendo, the Canonical version of Chord (Section 2): the
// Figure-2 merge example, degeneration to Chord, per-domain ring
// completeness, the paper's two routing properties (intra-domain path
// locality, inter-domain path convergence) and the degree/hop theorems.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "canon/crescendo.h"
#include "canon/mixed.h"
#include "common/rng.h"
#include "dht/chord.h"
#include "overlay/population.h"
#include "overlay/routing.h"

namespace canon {
namespace {

/// The two four-node rings of the paper's Figure 2, as one two-level
/// hierarchy: ring A = {0, 5, 10, 12}, ring B = {2, 3, 8, 13}.
OverlayNetwork figure2_network() {
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0, 5, 10, 12}) {
    nodes.push_back({id, DomainPath({0}), -1});
  }
  for (const NodeId id : {2, 3, 8, 13}) {
    nodes.push_back({id, DomainPath({1}), -1});
  }
  return OverlayNetwork(IdSpace(4), std::move(nodes));
}

std::set<NodeId> link_ids(const OverlayNetwork& net, const LinkTable& links,
                          NodeId of) {
  std::set<NodeId> out;
  for (const auto v : links.neighbors(net.index_of(of))) out.insert(net.id(v));
  return out;
}

TEST(Crescendo, Figure2Node0) {
  // Paper: node 0 keeps ring-A links {5, 10} and adds only node 2 in the
  // merge (node 8 is ruled out by condition (b); no link to 3).
  const auto net = figure2_network();
  const auto links = build_crescendo(net);
  EXPECT_EQ(link_ids(net, links, 0), (std::set<NodeId>{2, 5, 10}));
}

TEST(Crescendo, Figure2Node8) {
  // Paper: node 8 keeps ring-B links {13, 2} and adds {10, 12}; node 0 is
  // ruled out by condition (b).
  const auto net = figure2_network();
  const auto links = build_crescendo(net);
  EXPECT_EQ(link_ids(net, links, 8), (std::set<NodeId>{2, 10, 12, 13}));
}

TEST(Crescendo, Figure2Node2FormsNoMergeLinks) {
  // Paper: node 2 has node 3 in its own ring as the closest node, so
  // condition (b) rules out every merge link.
  const auto net = figure2_network();
  const auto links = build_crescendo(net);
  // Ring-B-only links of node 2: successor 3 (d1, d2), 8 (d4... ring B from
  // 2: >=1 -> 3, >=2 -> 8? distances: 3 is d1, 8 is d6, 13 is d11).
  for (const auto id : link_ids(net, links, 2)) {
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, 5u);
    EXPECT_NE(id, 10u);
    EXPECT_NE(id, 12u);
  }
}

TEST(Crescendo, EveryDomainRingIsComplete) {
  // Each node must link its successor within every domain it belongs to,
  // so that each domain forms a routable ring of its own.
  Rng rng(202);
  PopulationSpec spec;
  spec.node_count = 600;
  spec.hierarchy.levels = 4;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const DomainTree& dom = net.domains();
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    for (const int d : dom.domain_chain(m)) {
      const RingView ring = net.domain_ring(d);
      if (ring.size() < 2) continue;
      const std::uint32_t succ =
          ring.first_at_distance(net.id(m), 1);
      EXPECT_TRUE(links.has_link(m, succ))
          << "node " << m << " misses successor in domain " << d;
    }
  }
}

class CrescendoLevelsTest : public ::testing::TestWithParam<int> {};

TEST_P(CrescendoLevelsTest, AllRoutesSucceed) {
  const int levels = GetParam();
  Rng rng(203 + levels);
  PopulationSpec spec;
  spec.node_count = 800;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 5;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 400; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST_P(CrescendoLevelsTest, MeanDegreeWithinTheorem2Bound) {
  const int levels = GetParam();
  Rng rng(213 + levels);
  PopulationSpec spec;
  spec.node_count = 1024;
  spec.hierarchy.levels = levels;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const double n = 1024;
  const double bound =
      std::log2(n - 1) + std::min<double>(levels, std::log2(n));
  EXPECT_LE(links.mean_degree(), bound);
}

TEST_P(CrescendoLevelsTest, MeanHopsWithinTheorem5Bound) {
  const int levels = GetParam();
  Rng rng(223 + levels);
  PopulationSpec spec;
  spec.node_count = 1024;
  spec.hierarchy.levels = levels;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  Summary hops;
  for (int t = 0; t < 1500; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    hops.add(router.route(from, key).hops());
  }
  EXPECT_LE(hops.mean(), std::log2(1023.0) + 1);
}

TEST_P(CrescendoLevelsTest, IntraDomainPathLocality) {
  // "The route from one node to another never leaves the domain that
  //  contains both nodes."
  const int levels = GetParam();
  if (levels == 1) return;  // no non-trivial domains
  Rng rng(233 + levels);
  PopulationSpec spec;
  spec.node_count = 800;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  int checked = 0;
  for (int t = 0; t < 3000 && checked < 300; ++t) {
    const auto a = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const auto b = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const int lca = net.lca_level(a, b);
    if (lca == 0 || a == b) continue;
    ++checked;
    // Route to b's ID: every hop must stay inside the level-lca domain.
    const Route r = router.route(a, net.id(b));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), b);
    for (const auto hop : r.path) {
      EXPECT_GE(net.lca_level(hop, b), lca)
          << "route " << a << "->" << b << " left their common domain";
    }
  }
  EXPECT_GE(checked, 100);
}

TEST_P(CrescendoLevelsTest, InterDomainPathConvergence) {
  // "When different nodes within a domain D route to the same node x
  //  outside D, all the different routes exit D through a common node: the
  //  closest predecessor of x within D."
  const int levels = GetParam();
  if (levels == 1) return;
  Rng rng(243 + levels);
  PopulationSpec spec;
  spec.node_count = 800;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  const DomainTree& dom = net.domains();

  int checked = 0;
  for (int t = 0; t < 200 && checked < 40; ++t) {
    // Pick a random non-root domain D and a destination outside it.
    const int d = 1 + static_cast<int>(rng.uniform(
                          static_cast<std::uint64_t>(dom.domain_count() - 1)));
    const RingView ring = net.domain_ring(d);
    if (ring.size() < 2) continue;
    const auto x = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const int depth = dom.domain(d).depth;
    const std::uint32_t probe = ring.at(0);
    if (net.lca_level(probe, x) >= depth &&
        dom.domain_of(x, depth) == d) {
      continue;  // x inside D
    }
    ++checked;
    // The predicted exit: the closest predecessor of x's ID within D.
    const std::uint32_t exit = ring.predecessor_or_self(net.id(x));
    for (std::size_t i = 0; i < std::min<std::size_t>(ring.size(), 10); ++i) {
      const std::uint32_t src = ring.at(i);
      const Route r = router.route(src, net.id(x));
      ASSERT_TRUE(r.ok);
      // Find the last node of the path inside D; it must be `exit`.
      std::uint32_t last_inside = src;
      for (const auto hop : r.path) {
        const bool inside = dom.node_depth(hop) >= depth &&
                            dom.domain_of(hop, depth) == d;
        if (inside) last_inside = hop;
      }
      EXPECT_EQ(last_inside, exit)
          << "domain " << d << " src " << src << " x " << x;
    }
  }
  EXPECT_GE(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Levels, CrescendoLevelsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Crescendo, MeanDegreeNotAboveChordEquivalent) {
  // Section 5.1: the average degree in Crescendo is slightly *less* than
  // in Chord and decreases with more levels.
  Rng rng(251);
  PopulationSpec spec;
  spec.node_count = 2048;
  spec.hierarchy.levels = 1;
  const auto flat = make_population(spec, rng);
  const double chord_mean = build_chord(flat).mean_degree();
  Rng rng2(251);
  spec.hierarchy.levels = 4;
  const auto deep = make_population(spec, rng2);
  const double crescendo_mean = build_crescendo(deep).mean_degree();
  EXPECT_LE(crescendo_mean, chord_mean + 0.1);
}

TEST(CliqueCrescendo, RoutesSucceedAndLeafIsClique) {
  Rng rng(261);
  PopulationSpec spec;
  spec.node_count = 400;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  const auto links = build_clique_crescendo(net);
  const DomainTree& dom = net.domains();
  // Leaf domains are complete graphs.
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const int leaf_domain = dom.domain_chain(m).back();
    for (const auto v : dom.domain(leaf_domain).members) {
      if (v != m) {
        EXPECT_TRUE(links.has_link(m, v));
      }
    }
  }
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    EXPECT_TRUE(router.route(from, key).ok);
  }
}

}  // namespace
}  // namespace canon
