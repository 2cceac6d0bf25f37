// Tests for dynamic maintenance (Section 2.3): joins, leaves, the
// incremental-equals-from-scratch invariant, message costs and leaf sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "same_network.h"
#include "telemetry/metrics.h"

namespace canon {
namespace {

OverlayNode make_node(NodeId id, DomainPath path) {
  return OverlayNode{id, std::move(path), -1};
}

/// Asserts the dynamic structure's table is byte-identical (same CSR) to a
/// from-scratch Crescendo build over the same population.
void expect_equals_scratch(const DynamicCrescendo& dynamic) {
  EXPECT_TRUE(dynamic.link_table() == build_crescendo(dynamic.network()))
      << dynamic.size() << " nodes";
}

TEST(DynamicCrescendo, JoinsMatchScratchConstruction) {
  Rng rng(701);
  DynamicCrescendo dyn(IdSpace(16));
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 3;
  const auto paths = generate_hierarchy(60, hier, rng);
  const auto ids = sample_unique_ids(60, IdSpace(16), rng);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    dyn.join(make_node(ids[i], paths[i]));
    if (i % 10 == 9) expect_equals_scratch(dyn);
  }
  expect_equals_scratch(dyn);
}

TEST(DynamicCrescendo, LeavesMatchScratchConstruction) {
  Rng rng(702);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 3;
  const auto paths = generate_hierarchy(60, hier, rng);
  const auto ids = sample_unique_ids(60, IdSpace(16), rng);
  std::vector<OverlayNode> initial;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    initial.push_back(make_node(ids[i], paths[i]));
  }
  DynamicCrescendo dyn(IdSpace(16), initial);
  expect_equals_scratch(dyn);
  std::vector<NodeId> order(ids);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  for (std::size_t i = 0; i + 5 < order.size(); ++i) {
    dyn.leave(order[i]);
    if (i % 10 == 9) expect_equals_scratch(dyn);
  }
  expect_equals_scratch(dyn);
}

TEST(DynamicCrescendo, MixedChurnMatchesScratch) {
  Rng rng(703);
  HierarchySpec hier;
  hier.levels = 2;
  hier.fanout = 4;
  DynamicCrescendo dyn(IdSpace(20));
  std::vector<OverlayNode> alive;
  for (int round = 0; round < 120; ++round) {
    const bool join = alive.size() < 10 || rng.uniform(3) != 0;
    if (join) {
      const auto ids = sample_unique_ids(1, IdSpace(20), rng);
      if (dyn.contains(ids[0])) continue;
      const auto paths = generate_hierarchy(1, hier, rng);
      const OverlayNode n = make_node(ids[0], paths[0]);
      dyn.join(n);
      alive.push_back(n);
    } else {
      const std::size_t pick = rng.uniform(alive.size());
      dyn.leave(alive[pick].id);
      alive.erase(alive.begin() + static_cast<long>(pick));
    }
  }
  expect_equals_scratch(dyn);
  EXPECT_EQ(dyn.size(), alive.size());
}

TEST(DynamicCrescendo, RoutingWorksThroughoutChurn) {
  Rng rng(704);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 3;
  DynamicCrescendo dyn(IdSpace(20));
  for (int round = 0; round < 80; ++round) {
    const auto ids = sample_unique_ids(1, IdSpace(20), rng);
    if (dyn.contains(ids[0])) continue;
    const auto paths = generate_hierarchy(1, hier, rng);
    dyn.join(make_node(ids[0], paths[0]));
    if (dyn.size() >= 2 && round % 10 == 0) {
      const LinkTable& table = dyn.link_table();
      const RingRouter router(dyn.network(), table);
      for (int t = 0; t < 20; ++t) {
        const auto from =
            static_cast<std::uint32_t>(rng.uniform(dyn.size()));
        const NodeId key = dyn.network().space().wrap(rng());
        const Route r = router.route(from, key);
        EXPECT_TRUE(r.ok);
      }
    }
  }
}

TEST(DynamicCrescendo, JoinCostIsLogarithmic) {
  Rng rng(705);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 4;
  DynamicCrescendo dyn(IdSpace(28));
  Summary messages;
  for (int i = 0; i < 400; ++i) {
    const auto ids = sample_unique_ids(1, IdSpace(28), rng);
    if (dyn.contains(ids[0])) continue;
    const auto paths = generate_hierarchy(1, hier, rng);
    const MaintenanceCost c = dyn.join(make_node(ids[0], paths[0]));
    if (dyn.size() > 100) messages.add(c.messages());
  }
  // O(log n) messages: for n in (100, 400], log2(n) in (6.6, 8.6]. Allow a
  // generous constant factor.
  EXPECT_LE(messages.mean(), 6 * std::log2(400.0));
}

TEST(DynamicCrescendo, DuplicateJoinAndUnknownLeaveThrow) {
  DynamicCrescendo dyn(IdSpace(8));
  dyn.join(make_node(5, {}));
  EXPECT_THROW(dyn.join(make_node(5, {})), std::invalid_argument);
  EXPECT_THROW(dyn.leave(99), std::invalid_argument);
}

TEST(DynamicCrescendo, LeafSetsFollowPerLevelRings) {
  Rng rng(706);
  HierarchySpec hier;
  hier.levels = 2;
  hier.fanout = 2;
  const auto paths = generate_hierarchy(40, hier, rng);
  const auto ids = sample_unique_ids(40, IdSpace(16), rng);
  std::vector<OverlayNode> initial;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    initial.push_back(make_node(ids[i], paths[i]));
  }
  const DynamicCrescendo dyn(IdSpace(16), initial);
  const OverlayNetwork& net = dyn.network();
  for (std::uint32_t m = 0; m < net.size(); m += 5) {
    for (int level = 0; level <= net.domains().node_depth(m); ++level) {
      const auto set = dyn.leaf_set(net.id(m), level, 3);
      const RingView ring =
          net.domain_ring(net.domains().domain_of(m, level));
      ASSERT_LE(set.size(), 3u);
      // The leaf set is the next successors of m on the level ring.
      NodeId cursor = net.id(m);
      for (const NodeId s : set) {
        const std::uint32_t expect =
            ring.first_at_distance(cursor, 1);
        EXPECT_EQ(s, net.id(expect));
        cursor = s;
      }
    }
  }
}

TEST(DynamicCrescendo, LeafSetsEnableSuccessorRepair) {
  // When a node dies, its predecessor's leaf set already contains the next
  // live successor at every level — the repair needs no lookup.
  Rng rng(707);
  HierarchySpec hier;
  hier.levels = 2;
  hier.fanout = 2;
  const auto paths = generate_hierarchy(30, hier, rng);
  const auto ids = sample_unique_ids(30, IdSpace(16), rng);
  std::vector<OverlayNode> initial;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    initial.push_back(make_node(ids[i], paths[i]));
  }
  DynamicCrescendo dyn(IdSpace(16), initial);
  const OverlayNetwork& before = dyn.network();
  const NodeId victim = before.id(7);
  const NodeId pred =
      before.id(before.ring().predecessor_or_self(
          before.space().advance(victim, before.space().mask())));
  const auto leaf_before = dyn.leaf_set(pred, 0, 3);
  ASSERT_GE(leaf_before.size(), 2u);
  ASSERT_EQ(leaf_before[0], victim);
  dyn.leave(victim);
  const auto leaf_after = dyn.leaf_set(pred, 0, 3);
  ASSERT_GE(leaf_after.size(), 1u);
  // The new first successor is the old second entry.
  EXPECT_EQ(leaf_after[0], leaf_before[1]);
}

/// Installs a metrics registry for one scope.
struct RegistryGuard {
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* prev = telemetry::install_registry(&registry);
  ~RegistryGuard() { telemetry::install_registry(prev); }
};

TEST(DynamicCrescendo, RejectedChangesLeaveTheStructureUnchanged) {
  DynamicCrescendo dyn(IdSpace(8), {make_node(1, {0}), make_node(50, {1}),
                                    make_node(100, {0})});
  // The maintenance counters and timers count committed changes only.
  RegistryGuard metrics;
  const LinkTable table_before = dyn.link_table();
  const std::vector<NodeId> ids_before = dyn.network().ids();
  const auto expect_unchanged = [&] {
    EXPECT_EQ(dyn.size(), 3u);
    EXPECT_EQ(dyn.network().ids(), ids_before);
    EXPECT_TRUE(dyn.link_table() == table_before);
  };
  EXPECT_THROW(dyn.join(make_node(300, {0})), std::invalid_argument);
  expect_unchanged();
  EXPECT_THROW(dyn.join(make_node(50, {0})), std::invalid_argument);
  expect_unchanged();
  EXPECT_THROW(dyn.leave(99), std::invalid_argument);
  expect_unchanged();
  // Later changes still apply.
  dyn.join(make_node(7, {1}));
  dyn.leave(50);
  EXPECT_EQ(dyn.network().ids(), (std::vector<NodeId>{1, 7, 100}));
  expect_equals_scratch(dyn);
  telemetry::MetricsRegistry& r = metrics.registry;
  EXPECT_EQ(r.counter("maintenance.joins").value(), 1u);
  EXPECT_EQ(r.counter("maintenance.leaves").value(), 1u);
  EXPECT_EQ(r.histogram("maintenance.join_ms").count(), 1u);
  EXPECT_EQ(r.histogram("maintenance.leave_ms").count(), 1u);
}

/// Oracle for a join's insertion-lookup hops on the pre-join network: the
/// bootstrap is the lowest index among the nodes of maximal LCA depth with
/// the joiner (an O(n) scan), and the route runs on a from-scratch table.
int oracle_lookup_hops(const OverlayNetwork& net, const OverlayNode& joiner) {
  if (net.size() == 0) return 0;
  NodeIndex bootstrap = 0;
  int best_lca = -1;
  for (NodeIndex i = 0; i < net.size(); ++i) {
    const int lca = net.path(i).lca_depth(joiner.domain.view());
    if (lca > best_lca) {
      best_lca = lca;
      bootstrap = i;
    }
  }
  const LinkTable scratch = build_crescendo(net);
  return RingRouter(net, scratch).route(bootstrap, joiner.id).hops();
}

struct ChurnCase {
  int id_bits;
  int levels;           ///< HierarchySpec levels (1 = flat)
  std::size_t initial;  ///< bootstrap population
  int random_ops;       ///< random joins and leaves after the edge ops
  bool drain;           ///< then leave down to empty and rejoin
  std::uint64_t seed;
};

/// Seeded differential churn: two replicas, one maintained at 1 worker
/// thread and one at 4, take the same changes. After every change the
/// derived network must equal one constructed from the member list in
/// every field, both tables must equal a from-scratch build over that
/// network byte for byte, both costs must agree, and a join's lookup hops
/// must match the O(n)-scan oracle. The scripted edges move the index
/// shift to both ends of the ID order, empty the structure and open a
/// top-level domain nobody occupies, so the derived domain tree takes both
/// the shifted and the re-indexed branch.
TEST(DynamicCrescendo, DifferentialChurnMatchesScratchBuildAtAnyThreadCount) {
  const ChurnCase cases[] = {
      {16, 1, 40, 300, true, 801},  {16, 2, 60, 300, true, 802},
      {16, 3, 50, 300, true, 803},  {16, 3, 0, 200, true, 804},
      {64, 1, 30, 200, true, 805},  {64, 3, 80, 300, true, 806},
      // Past one 512-node build shard, so the 4-thread replica builds in
      // parallel.
      {64, 3, 1100, 40, false, 807},
  };
  const int threads_before = parallel_threads();
  for (const ChurnCase& c : cases) {
    SCOPED_TRACE("id_bits " + std::to_string(c.id_bits) + ", levels " +
                 std::to_string(c.levels) + ", seed " +
                 std::to_string(c.seed));
    const IdSpace space(c.id_bits);
    Rng rng(c.seed);
    HierarchySpec hier;
    hier.levels = c.levels;
    hier.fanout = 3;
    const auto ids = sample_unique_ids(c.initial, space, rng);
    const auto paths = generate_hierarchy(c.initial, hier, rng);
    std::vector<OverlayNode> initial;
    for (std::size_t i = 0; i < c.initial; ++i) {
      initial.push_back(make_node(ids[i], paths[i]));
    }
    set_parallel_threads(1);
    DynamicCrescendo serial(space, initial);
    set_parallel_threads(4);
    DynamicCrescendo parallel(space, initial);
    ASSERT_TRUE(serial.link_table() == parallel.link_table());
    expect_equals_scratch(serial);
    std::vector<OverlayNode> members = initial;

    const auto apply = [&](bool join, const OverlayNode& node) {
      const int want_hops =
          join ? oracle_lookup_hops(serial.network(), node) : 0;
      set_parallel_threads(1);
      const MaintenanceCost a =
          join ? serial.join(node) : serial.leave(node.id);
      set_parallel_threads(4);
      const MaintenanceCost b =
          join ? parallel.join(node) : parallel.leave(node.id);
      EXPECT_EQ(a.lookup_hops, want_hops);
      EXPECT_EQ(a.lookup_hops, b.lookup_hops);
      EXPECT_EQ(a.nodes_updated, b.nodes_updated);
      if (join) {
        members.push_back(node);
      } else {
        std::erase_if(members,
                      [&](const OverlayNode& m) { return m.id == node.id; });
      }
      const OverlayNetwork scratch(space, members);
      ASSERT_TRUE(same_network(serial.network(), scratch))
          << (join ? "join " : "leave ") << node.id << " at size "
          << serial.size();
      ASSERT_TRUE(same_network(parallel.network(), scratch));
      ASSERT_TRUE(serial.link_table() == parallel.link_table());
      ASSERT_TRUE(serial.link_table() == build_crescendo(scratch))
          << (join ? "join " : "leave ") << node.id << " at size "
          << serial.size();
    };
    const auto join = [&](NodeId id, DomainPath path) {
      ASSERT_FALSE(serial.contains(id));
      apply(true, make_node(id, std::move(path)));
    };
    const auto leave_index = [&](std::size_t i) {
      apply(false, make_node(serial.network().id(static_cast<NodeIndex>(i)),
                             {}));
    };
    // A quarter of the random joiners land in the lowest and a quarter in
    // the highest 1/64 of the space, and likewise a quarter of the random
    // leavers sit at each end of the ID order: that is where links wrap
    // around the ring, and where the index shift meets the wrap.
    const auto fresh_id = [&] {
      const NodeId edge = space.mask() >> 6;
      NodeId id = 0;
      do {
        switch (rng.uniform(4)) {
          case 0: id = rng() & edge; break;
          case 1: id = space.mask() - (rng() & edge); break;
          default: id = rng() & space.mask();
        }
      } while (serial.contains(id));
      return id;
    };
    const auto random_index = [&] {
      const std::size_t n = serial.size();
      const std::size_t end = std::min<std::size_t>(n, 3);
      switch (rng.uniform(4)) {
        case 0: return static_cast<std::size_t>(rng.uniform(end));
        case 1: return n - 1 - static_cast<std::size_t>(rng.uniform(end));
        default: return static_cast<std::size_t>(rng.uniform(n));
      }
    };
    const auto fresh_path = [&] { return generate_hierarchy(1, hier, rng)[0]; };

    if (c.initial > 0) {
      // Joiners below the smallest and above the largest ID, then leaves
      // at index 0 and n - 1 (the joiners, then the original extremes).
      join(0, fresh_path());
      ASSERT_EQ(serial.network().id(0), 0u);
      join(space.mask(), fresh_path());
      ASSERT_EQ(serial.network().id(static_cast<NodeIndex>(serial.size() - 1)),
                space.mask());
      for (int twice = 0; twice < 2; ++twice) {
        leave_index(0);
        leave_index(serial.size() - 1);
      }
    }
    if (c.levels > 1) {
      // A top-level domain nobody occupies (the generator's branches are
      // below the fanout), then a second member for it.
      std::vector<std::uint16_t> branches(
          static_cast<std::size_t>(c.levels - 1), 0);
      branches[0] = static_cast<std::uint16_t>(hier.fanout);
      join(fresh_id(), DomainPath(branches));
      join(fresh_id(), DomainPath(branches));
    }
    for (int op = 0; op < c.random_ops; ++op) {
      if (serial.size() < 2 || rng.uniform(2) == 0) {
        join(fresh_id(), fresh_path());
      } else {
        leave_index(random_index());
      }
    }
    if (c.drain) {
      while (serial.size() > 1) leave_index(random_index());
      leave_index(0);
      ASSERT_EQ(serial.size(), 0u);
      for (int i = 0; i < 3; ++i) join(fresh_id(), fresh_path());
    }
    EXPECT_EQ(serial.size(), parallel.size());
  }
  set_parallel_threads(threads_before);
}

}  // namespace
}  // namespace canon
