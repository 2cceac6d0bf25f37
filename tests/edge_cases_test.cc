// Edge-case coverage across modules: degenerate populations, extreme ID
// widths, grouped overlays with one group, CAN multi-zone ownership, and
// store behavior at boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/rng.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "overlay/metrics.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "storage/hierarchical_store.h"

namespace canon {
namespace {

TEST(EdgeCases, SixtyFourBitIdSpace) {
  Rng rng(1101);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.id_bits = 64;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 3;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 100; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = rng();
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.responsible(key));
  }
}

TEST(EdgeCases, OneBitIdSpace) {
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}};
  const OverlayNetwork net(IdSpace(1), std::move(nodes));
  const auto links = build_chord(net);
  EXPECT_TRUE(links.has_link(0, 1));
  EXPECT_TRUE(links.has_link(1, 0));
  const RingRouter router(net, links);
  EXPECT_EQ(router.route(0, 1).terminal(), 1u);
  EXPECT_EQ(router.route(1, 0).terminal(), 0u);
}

TEST(EdgeCases, DenseIdSpaceEveryIdTaken) {
  // All 16 IDs of a 4-bit space occupied.
  std::vector<OverlayNode> nodes;
  for (NodeId id = 0; id < 16; ++id) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_chord(net);
  const RingRouter router(net, links);
  for (NodeId key = 0; key < 16; ++key) {
    const Route r = router.route(0, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(net.id(r.terminal()), key);  // every key has an exact owner
  }
}

TEST(EdgeCases, GroupedOverlaySingleGroup) {
  Rng rng(1102);
  // 64-bit IDs included: a zero-bit group ID must not shift by 64.
  for (const int bits : {kDefaultIdBits, 64}) {
    SCOPED_TRACE(bits);
    PopulationSpec spec;
    spec.node_count = 8;
    spec.id_bits = bits;
    const auto net = make_population(spec, rng);
    // A population below twice kTargetGroupSize: one group, T == 0.
    const GroupedOverlay groups(net);
    EXPECT_EQ(groups.prefix_bits(), 0);
    EXPECT_EQ(groups.groups().size(), 1u);
    for (std::uint32_t i = 0; i < net.size(); ++i) {
      EXPECT_EQ(groups.group_index_of(i), 0);
    }
    // The responsible node degenerates to the plain predecessor rule.
    for (int t = 0; t < 50; ++t) {
      const NodeId key = net.space().wrap(rng());
      EXPECT_EQ(groups.responsible(key), net.responsible(key));
    }
  }
}

TEST(EdgeCases, GroupRouterWithSingleGroupUsesClique) {
  Rng rng(1103);
  for (const int bits : {kDefaultIdBits, 64}) {
    SCOPED_TRACE(bits);
    PopulationSpec spec;
    spec.node_count = 16;
    spec.id_bits = bits;
    const auto net = make_population(spec, rng);
    const auto groups = std::make_shared<const GroupedOverlay>(net);
    const HopCost cost = [](std::uint32_t, std::uint32_t) { return 1.0; };
    const ProximityConfig cfg;
    Rng brng(1);
    const auto links = build_chord_prox(net, *groups, cost, cfg, brng);
    const GroupRouter router(net, groups, links);
    for (int t = 0; t < 50; ++t) {
      const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
      const NodeId key = net.space().wrap(rng());
      const Route r = router.route(from, key);
      EXPECT_TRUE(r.ok);
      EXPECT_LE(r.hops(), 1);  // clique: at most one hop
    }
  }
}

TEST(EdgeCases, ZoneTreeMultiZoneOwnership) {
  // IDs clustered in the low half of an 8-bit space force empty-sibling
  // blocks whose owners hold several zones.
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {1, 2, 3, 5}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(8), std::move(nodes));
  const ZoneTree tree(net, net.ring().members());
  std::size_t zones = 0;
  bool someone_owns_many = false;
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto owned = tree.zones_of(m);
    zones += owned.size();
    someone_owns_many |= owned.size() > 1;
    // Primary zone always contains the owner's ID.
    const auto z = tree.zone(m);
    const int shift = 8 - z.len;
    EXPECT_EQ(net.id(m) >> shift, z.prefix >> shift);
  }
  EXPECT_TRUE(someone_owns_many);
  // Zones partition the space: total size == 256.
  std::uint64_t covered = 0;
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    for (const auto& z : tree.zones_of(m)) {
      covered += std::uint64_t{1} << (8 - z.len);
    }
  }
  EXPECT_EQ(covered, 256u);
}

TEST(EdgeCases, ZoneTreeMatchLenUsesAllZones) {
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0x10, 0x80}) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(IdSpace(8), std::move(nodes));
  const RingView ring = net.ring();
  const ZoneTree tree(net, ring.members());
  // Node 0x10 owns [0x00,0x80); node 0x80 owns [0x80,0x100).
  EXPECT_EQ(tree.owner_of(0x7F), net.index_of(0x10));
  EXPECT_EQ(tree.owner_of(0xFF), net.index_of(0x80));
  EXPECT_EQ(tree.match_len(net.index_of(0x10), 0x00), 1);
}

TEST(EdgeCases, StoreOnFlatPopulationBehavesLikePlainDht) {
  Rng rng(1104);
  PopulationSpec spec;
  spec.node_count = 100;
  const auto net = make_population(spec, rng);
  const auto links = build_crescendo(net);
  HierarchicalStore store(net, links);
  const NodeId key = net.space().wrap(rng());
  // Only level 0 exists.
  EXPECT_THROW(store.put(0, key, "x", 1, 1), std::invalid_argument);
  store.put(0, key, "x", 0, 0);
  EXPECT_EQ(store.get(55, key).value, "x");
}

TEST(EdgeCases, MulticastSingleRoute) {
  MulticastTree tree;
  Route r;
  r.path = {4};
  tree.add_route(r);  // zero-hop route contributes no edges
  EXPECT_EQ(tree.edge_count(), 0u);
}

TEST(EdgeCases, RaggedHierarchyRoutesFine) {
  // Mixed depths: some nodes directly under root, some 3 levels deep.
  Rng rng(1105);
  const auto ids = sample_unique_ids(120, IdSpace(24), rng);
  std::vector<OverlayNode> nodes;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    DomainPath path;
    switch (i % 3) {
      case 0:
        path = DomainPath{};
        break;
      case 1:
        path = DomainPath({static_cast<std::uint16_t>(i % 4)});
        break;
      default:
        path = DomainPath({static_cast<std::uint16_t>(i % 4),
                           static_cast<std::uint16_t>(i % 2), 0});
        break;
    }
    nodes.push_back({ids[i], path, -1});
  }
  const OverlayNetwork net(IdSpace(24), std::move(nodes));
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
  }
}

TEST(EdgeCases, CrescendoDeterministicAcrossRebuilds) {
  Rng rng(1106);
  PopulationSpec spec;
  spec.node_count = 150;
  spec.hierarchy.levels = 3;
  const auto net = make_population(spec, rng);
  const auto a = build_crescendo(net);
  const auto b = build_crescendo(net);
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    const auto x = a.neighbors(m);
    const auto y = b.neighbors(m);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
  }
}

}  // namespace
}  // namespace canon
