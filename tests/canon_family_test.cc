// Tests for the other Canon family members: Cacophony (Symphony),
// nondeterministic Crescendo, Kandy (Kademlia) and Can-Can (CAN), plus the
// flat-hierarchy check (invariant 6) for every Canonical family.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "canon/cacophony.h"
#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "canon/nondet_crescendo.h"
#include "common/rng.h"
#include "dht/kademlia.h"
#include "link_oracles.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/metrics.h"

namespace canon {
namespace {

PopulationSpec deep_spec(std::size_t n, int levels) {
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 5;
  return spec;
}

class FamilyLevelsTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyLevelsTest, CacophonyRoutesSucceed) {
  const int levels = GetParam();
  Rng rng(301 + levels);
  const auto net = make_population(deep_spec(700, levels), rng);
  const auto links = build_cacophony(net, rng);
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST_P(FamilyLevelsTest, NondetCrescendoRoutesSucceed) {
  const int levels = GetParam();
  Rng rng(311 + levels);
  const auto net = make_population(deep_spec(700, levels), rng);
  const auto links = build_nondet_crescendo(net, rng);
  const RingRouter router(net, links);
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
  }
}

TEST_P(FamilyLevelsTest, KandyRoutesSucceed) {
  const int levels = GetParam();
  Rng rng(321 + levels);
  const auto net = make_population(deep_spec(700, levels), rng);
  const auto links = build_kandy(net);
  const XorRouter router(net, links);
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.xor_closest(key));
  }
}

TEST_P(FamilyLevelsTest, CanCanRoutesSucceed) {
  const int levels = GetParam();
  Rng rng(331 + levels);
  const auto net = make_population(deep_spec(600, levels), rng);
  const LinkTable links = build_cancan(net);
  const auto zones = std::make_shared<const CanCanZones>(net);
  const CanCanRouter router(net, zones, links);
  int ok = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    if (r.ok) {
      ++ok;
      EXPECT_EQ(r.terminal(), zones->responsible(key));
    }
  }
  // The Canon merge filter for CAN is the loosest part of the paper;
  // require routing to work for the overwhelming majority of queries (the
  // router's XOR fallback covers faces the filter removed).
  EXPECT_GE(ok, kTrials * 99 / 100) << "levels=" << levels;
}

TEST_P(FamilyLevelsTest, DegreesStayLogarithmic) {
  const int levels = GetParam();
  Rng rng(341 + levels);
  const auto net = make_population(deep_spec(1000, levels), rng);
  const double logn = std::log2(1000.0);
  EXPECT_LE(build_cacophony(net, rng).mean_degree(), logn + 2);
  EXPECT_LE(build_nondet_crescendo(net, rng).mean_degree(), logn + 2);
  EXPECT_LE(build_kandy(net).mean_degree(), logn + 2);
  EXPECT_LE(build_cancan(net).mean_degree(), 3 * logn);
}

INSTANTIATE_TEST_SUITE_P(Levels, FamilyLevelsTest,
                         ::testing::Values(1, 2, 3, 5));

// DESIGN.md invariant 6: with a one-level hierarchy every Canonical
// construction is its flat original, table for table (randomized pairs
// draw from the same seed). The cases run the merge walk's leaf-only path
// (canon/merge.h) for every family the invariant names.
struct FlatPair {
  const char* canonical;
  const char* flat;
};

// Names each case after its Canonical family (ctest shows the printed
// parameter in place of the case index).
void PrintTo(const FlatPair& pair, std::ostream* os) { *os << pair.canonical; }

constexpr FlatPair kFlatPairs[] = {
    {"crescendo", "chord"},
    {"cacophony", "symphony"},
    {"nondet_crescendo", "nondet_chord"},
    {"kandy", "kademlia"},
    {"cancan", "can"},
    {"crescendo_prox", "chord_prox"},
};

class FlatHierarchyTest : public ::testing::TestWithParam<FlatPair> {};

TEST_P(FlatHierarchyTest, DegeneratesToFlatOriginal) {
  const FlatPair& pair = GetParam();
  for (const int bits : {kDefaultIdBits, 64}) {
    SCOPED_TRACE(bits);
    PopulationSpec spec = deep_spec(400, 1);
    spec.id_bits = bits;
    Rng rng(351);
    const auto net = make_population(spec, rng);
    EXPECT_TRUE(registry::build_family(net, pair.canonical, 77) ==
                registry::build_family(net, pair.flat, 77));
  }
}

INSTANTIATE_TEST_SUITE_P(Invariant6, FlatHierarchyTest,
                         ::testing::ValuesIn(kFlatPairs));

TEST(NondetCrescendo, RespectsConditionB) {
  // Section 3.2: merge links must be strictly closer than the closest node
  // of the node's own child ring.
  Rng rng(354);
  const auto net = make_population(deep_spec(500, 3), rng);
  const auto links = build_nondet_crescendo(net, rng);
  const DomainTree& dom = net.domains();
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    for (const auto v : links.neighbors(m)) {
      // Links to nodes outside the leaf domain must beat the leaf-domain
      // successor distance.
      if (net.lca_level(m, v) >= leaf) continue;
      const std::uint64_t leaf_succ =
          net.domain_ring(chain[static_cast<std::size_t>(leaf)])
              .successor_distance(net.id(m));
      EXPECT_LT(net.space().ring_distance(net.id(m), net.id(v)), leaf_succ);
    }
  }
}

TEST(Kandy, RespectsPerBucketConditionB) {
  // A link leaving the leaf domain must be strictly closer than every leaf
  // mate within the same XOR bucket (the per-bucket reading of "closer than
  // any node in m's own ring").
  Rng rng(355);
  const auto net = make_population(deep_spec(500, 3), rng);
  const auto links = build_kandy(net);
  const DomainTree& dom = net.domains();
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    const RingView leaf_ring =
        net.domain_ring(chain[static_cast<std::size_t>(leaf)]);
    for (const auto v : links.neighbors(m)) {
      if (net.lca_level(m, v) >= leaf) continue;
      const std::uint64_t d = net.space().xor_distance(net.id(m), net.id(v));
      const std::uint64_t leaf_bucket_best =
          bucket_closest_distance(net, leaf_ring, net.id(m), floor_log2(d));
      // 0: the leaf ring leaves this bucket empty, so any member may link.
      if (leaf_bucket_best != 0) {
        EXPECT_LT(d, leaf_bucket_best);
      }
    }
  }
}

// The hierarchical builders against the linear-scan oracles of
// link_oracles.h, level by level, on 3-level populations (dht_test runs the
// same oracles on flat ones).
TEST(BruteForceOracle, CrescendoFingersMatchLinearScanLevelByLevel) {
  for (const oracle::Case& c : oracle::cases({3})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 11);
    EXPECT_TRUE(oracle::rows_match(net, build_crescendo(net), [&](NodeIndex m) {
      return oracle::crescendo_links(net, m);
    })) << c.name();
  }
}

TEST(BruteForceOracle, NondetCrescendoBucketDrawsMatchLinearScan) {
  for (const oracle::Case& c : oracle::cases({3})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 12);
    Rng rng(c.n + 13);
    const Rng base = rng;
    EXPECT_TRUE(oracle::rows_match(
        net, build_nondet_crescendo(net, rng), [&](NodeIndex m) {
          return oracle::nondet_crescendo_links(net, m, base.fork(m));
        }))
        << c.name();
  }
}

TEST(BruteForceOracle, CacophonyDrawsMatchLinearScan) {
  for (const oracle::Case& c : oracle::cases({3})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 17);
    Rng rng(c.n + 18);
    const Rng base = rng;
    EXPECT_TRUE(oracle::rows_match(
        net, build_cacophony(net, rng), [&](NodeIndex m) {
          return oracle::cacophony_links(net, m, base.fork(m));
        }))
        << c.name();
  }
}

TEST(BruteForceOracle, KandyClosestPerBucketMatchesLinearScan) {
  for (const oracle::Case& c : oracle::cases({3})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 14);
    for (const MergePolicy policy :
         {MergePolicy::kFrugal, MergePolicy::kLiteral}) {
      EXPECT_TRUE(oracle::rows_match(
          net, build_kandy(net, policy), [&](NodeIndex m) {
            return oracle::kandy_closest_links(net, m, policy);
          }))
          << c.name() << " literal=" << (policy == MergePolicy::kLiteral);
    }
  }
}

TEST(BruteForceOracle, CanCanChildBucketEmptinessMatchesLinearScan) {
  // Can-Can keeps a face edge above the leaf only when the face lies
  // beyond the child zone or the child domain has no member across it
  // (its XOR bucket is empty); the oracle decides emptiness by scan.
  const auto expected = [](const OverlayNetwork& net,
                           const CanCanZones& cancan, NodeIndex m) {
    const auto chain = net.domains().domain_chain(m);
    const int leaf = static_cast<int>(chain.size()) - 1;
    const int bits = net.space().bits();
    const auto tree = [&](int level) -> const ZoneTree& {
      return cancan.tree(chain[static_cast<std::size_t>(level)]);
    };
    const auto leaf_edges = tree(leaf).neighbors(m);
    std::set<NodeIndex> links(leaf_edges.begin(), leaf_edges.end());
    for (int level = leaf - 1; level >= 0; --level) {
      const auto child = oracle::others(net, m, level + 1);
      const int lower_len = tree(level + 1).zone(m).len;
      for (int pos = 0; pos < tree(level).zone(m).len; ++pos) {
        const int k = bits - 1 - pos;
        if (pos < lower_len &&
            oracle::xor_closest_in_bucket(net, m, child, k,
                                          std::uint64_t{1} << k) !=
                kInvalidNodeIndex) {
          continue;
        }
        std::vector<std::uint32_t> face;
        tree(level).face_neighbors(m, pos, face);
        links.insert(face.begin(), face.end());
      }
    }
    links.erase(m);
    return links;
  };
  for (const oracle::Case& c : oracle::cases({3})) {
    const auto net = oracle::population(c.bits, c.n, c.levels, c.n + 16);
    const CanCanZones cancan(net);
    EXPECT_TRUE(oracle::rows_match(net, build_cancan(net), [&](NodeIndex m) {
      return expected(net, cancan, m);
    })) << c.name();
  }
}

TEST(RingLocality, HoldsForAllRingBasedFamilies) {
  // Intra-domain path locality (Section 2.2) holds for every construction
  // whose merge links are strictly shorter than the child-ring successor.
  Rng rng(356);
  const auto net = make_population(deep_spec(700, 3), rng);
  struct NamedTable {
    const char* name;
    LinkTable table;
  };
  std::vector<NamedTable> tables;
  tables.push_back({"cacophony", build_cacophony(net, rng)});
  tables.push_back({"nondet_crescendo", build_nondet_crescendo(net, rng)});
  for (const auto& [name, links] : tables) {
    const RingRouter router(net, links);
    int checked = 0;
    for (int t = 0; t < 3000 && checked < 200; ++t) {
      const auto a = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const auto b = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const int lca = net.lca_level(a, b);
      if (lca == 0 || a == b) continue;
      ++checked;
      const Route r = router.route(a, net.id(b));
      ASSERT_TRUE(r.ok) << name;
      for (const auto hop : r.path) {
        EXPECT_GE(net.lca_level(hop, b), lca) << name;
      }
    }
    EXPECT_GE(checked, 100) << name;
  }
}

TEST(CanCan, RouterRoutesOverTheGivenTableWithoutRebuilding) {
  Rng rng(358);
  const auto net = make_population(deep_spec(300, 3), rng);
  const registry::FamilyEntry& entry = registry::family("cancan");
  telemetry::MetricsRegistry metrics;
  telemetry::MetricsRegistry* prev = telemetry::install_registry(&metrics);
  const LinkTable table = registry::build_family(net, "cancan", 1);
  const registry::FamilyRouter router = entry.make_router(net, table);
  const Stepper stepper = entry.make_stepper(net, table);
  telemetry::install_registry(prev);
  // One build: neither the router nor the stepper builds a table.
  const auto& histograms = metrics.histograms();
  const auto it = histograms.find("build.cancan_ms");
  ASSERT_NE(it, histograms.end());
  EXPECT_EQ(it->second.count(), 1u);

  const CanCanRouter direct(net, std::make_shared<const CanCanZones>(net),
                            table);
  EXPECT_EQ(&direct.kernel().links(), &table);
  // Over a table with no links every lookup not starting at its key's
  // owner is stuck: the router uses the table it is given.
  const LinkTable empty =
      LinkTable::build(net.ids(), [](NodeIndex, LinkRow&) {});
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 200, Rng(9));
  EXPECT_EQ(router.run(engine, queries).failures, 0u);
  EXPECT_GT(entry.make_router(net, empty).run(engine, queries).failures,
            150u);
}

}  // namespace
}  // namespace canon
