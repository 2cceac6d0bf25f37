// Tests for proximity adaptation (Section 3.6): grouping, group-based
// Chord and Crescendo construction, and the group router.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "canon/crescendo.h"
#include "canon/proximity.h"
#include "common/rng.h"
#include "overlay/population.h"
#include "topology/physical_network.h"

namespace canon {
namespace {

TransitStubConfig tiny_topology() {
  TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_per_domain = 2;
  cfg.stub_domains_per_transit = 2;
  cfg.stubs_per_domain = 5;
  return cfg;
}

TEST(GroupedOverlay, GroupsAreContiguousAndSized) {
  Rng rng(501);
  PopulationSpec spec;
  spec.node_count = 1024;
  const auto net = make_population(spec, rng);
  const GroupedOverlay groups(net);
  EXPECT_EQ(groups.prefix_bits(), 6);  // 1024/16 = 64 groups
  std::size_t total = 0;
  NodeId prev_gid = 0;
  for (std::size_t i = 0; i < groups.groups().size(); ++i) {
    const auto& g = groups.groups()[i];
    if (i > 0) {
      EXPECT_GT(g.gid, prev_gid);
    }
    prev_gid = g.gid;
    total += g.members.size();
    for (const auto m : g.members) {
      EXPECT_EQ(groups.gid_of_node(m), g.gid);
      EXPECT_EQ(groups.group_index_of(m), static_cast<int>(i));
    }
  }
  EXPECT_EQ(total, net.size());
}

TEST(GroupedOverlay, ResponsibleGroupWraps) {
  Rng rng(502);
  PopulationSpec spec;
  spec.node_count = 256;
  const auto net = make_population(spec, rng);
  const GroupedOverlay groups(net);
  for (int t = 0; t < 200; ++t) {
    const NodeId key = net.space().wrap(rng());
    const int gi = groups.responsible_group(key);
    const auto& g = groups.groups()[static_cast<std::size_t>(gi)];
    // The responsible group's gid is the largest <= the key's gid, wrapping.
    EXPECT_LE(groups.group_distance(g.gid, groups.gid_of_key(key)),
              groups.group_distance(g.gid + 1, groups.gid_of_key(key)) + 1);
    const std::uint32_t r = groups.responsible(key);
    EXPECT_EQ(groups.gid_of_node(r), g.gid);
  }
}

TEST(GroupedOverlay, ResponsibleUsuallyGlobalPredecessor) {
  // Group responsibility coincides with the plain predecessor rule except
  // when the key falls below every member of its own group.
  Rng rng(503);
  PopulationSpec spec;
  spec.node_count = 2048;
  const auto net = make_population(spec, rng);
  const GroupedOverlay groups(net);
  int agree = 0;
  const int kTrials = 1000;
  for (int t = 0; t < kTrials; ++t) {
    const NodeId key = net.space().wrap(rng());
    agree += (groups.responsible(key) == net.responsible(key));
  }
  EXPECT_GT(agree, kTrials * 90 / 100);
}

class ProxFixture : public ::testing::Test {
 protected:
  ProxFixture()
      : rng_(504),
        phys_(tiny_topology(), rng_),
        net_(make_physical_population(800, phys_, 32, rng_)),
        cost_(host_hop_cost(net_, phys_)),
        groups_(std::make_shared<const GroupedOverlay>(net_)) {}

  Rng rng_;
  PhysicalNetwork phys_;
  OverlayNetwork net_;
  HopCost cost_;
  std::shared_ptr<const GroupedOverlay> groups_;
};

TEST_F(ProxFixture, ChordProxRoutesSucceed) {
  ProximityConfig cfg;
  const auto links = build_chord_prox(net_, *groups_, cost_, cfg, rng_);
  const GroupRouter router(net_, groups_, links);
  for (int t = 0; t < 400; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net_.size()));
    const NodeId key = net_.space().wrap(rng_());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), groups_->responsible(key));
  }
}

TEST_F(ProxFixture, CrescendoProxRoutesSucceed) {
  ProximityConfig cfg;
  const auto links = build_crescendo_prox(net_, *groups_, cost_, cfg, rng_);
  const GroupRouter router(net_, groups_, links);
  for (int t = 0; t < 400; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net_.size()));
    const NodeId key = net_.space().wrap(rng_());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), groups_->responsible(key));
  }
}

TEST_F(ProxFixture, GroupLinksPreferNearbyEndpoints) {
  // The latency-sampled endpoint must be no worse (on average) than a
  // random member of the same target group.
  ProximityConfig cfg;
  const auto links = build_chord_prox(net_, *groups_, cost_, cfg, rng_);
  Summary chosen;
  Summary random_member;
  for (std::uint32_t m = 0; m < net_.size(); ++m) {
    for (const auto v : links.neighbors(m)) {
      if (groups_->group_index_of(v) == groups_->group_index_of(m)) continue;
      chosen.add(cost_(m, v));
      const auto& g =
          groups_->groups()[static_cast<std::size_t>(groups_->group_index_of(v))];
      random_member.add(cost_(m, g.members[rng_.uniform(g.members.size())]));
    }
  }
  EXPECT_LT(chosen.mean(), random_member.mean() * 0.9);
}

TEST_F(ProxFixture, CrescendoProxKeepsLowLevelRings) {
  // Below the top level, Crescendo (Prox.) must keep ordinary Crescendo
  // successor links (so intra-domain routing is unaffected).
  ProximityConfig cfg;
  const auto links = build_crescendo_prox(net_, *groups_, cost_, cfg, rng_);
  const DomainTree& dom = net_.domains();
  for (std::uint32_t m = 0; m < net_.size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    for (std::size_t level = 1; level < chain.size(); ++level) {
      const RingView ring = net_.domain_ring(chain[level]);
      if (ring.size() < 2) continue;
      const std::uint32_t succ = ring.first_at_distance(net_.id(m), 1);
      EXPECT_TRUE(links.has_link(m, succ))
          << "node " << m << " level " << level;
    }
  }
}

TEST_F(ProxFixture, ProximityReducesMeanRouteLatency) {
  // The headline effect of Section 3.6: group-based construction lowers
  // per-hop latency compared to proximity-oblivious Crescendo.
  ProximityConfig cfg;
  const auto plain = build_crescendo(net_);
  const auto prox = build_crescendo_prox(net_, *groups_, cost_, cfg, rng_);
  const RingRouter plain_router(net_, plain);
  const GroupRouter prox_router(net_, groups_, prox);
  Summary plain_ms;
  Summary prox_ms;
  for (int t = 0; t < 400; ++t) {
    const auto from = static_cast<std::uint32_t>(rng_.uniform(net_.size()));
    const NodeId key = net_.space().wrap(rng_());
    const Route a = plain_router.route(from, key);
    const Route b = prox_router.route(from, key);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    plain_ms.add(path_cost(a, cost_));
    prox_ms.add(path_cost(b, cost_));
  }
  EXPECT_LT(prox_ms.mean(), plain_ms.mean());
}

}  // namespace
}  // namespace canon
