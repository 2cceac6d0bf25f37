// The routing-mode equivalence contract as a seeded differential sweep.
//
// Every family routes through one hop kernel and three drivers, so its
// modes must agree on every lookup: route, route_into, probe, probe_batch
// at every batch width, the registry stepper walked at candidate 0, the
// registry batch wrapper, and the failure-aware walk under an empty fault
// plan (with no retries and no fallback hops). Every lookup must succeed,
// and a ring or XOR family's must end where a brute-force oracle says: the
// linear-scan predecessor of the key, or the linear-scan XOR minimum.
// Over the ring families (but clique-Crescendo, whose quadratic leaf rows
// make a two-hop plan slow) the lookahead router must agree the same way,
// and its every path must be the committed-pair walk's.
//
// The case list is fixed: populations of n in {1, 2, 3, 5, 17, 100, 1000,
// 4096} nodes (at most half the ID space) over 8-, 16-, 32- and 64-bit
// IDs, with 1-5 hierarchy levels, fanout 2-10 and uniform or Zipf leaf
// placement drawn from a seeded stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "canon/cancan.h"
#include "canon/proximity.h"
#include "common/rng.h"
#include "dht/can.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

namespace canon {
namespace {

constexpr std::size_t kSizes[] = {1, 2, 3, 5, 17, 100, 1000, 4096};
constexpr int kIdBits[] = {8, 16, 32, 64};
constexpr int kShapesPerSize = 6;
constexpr std::size_t kLookups = 150;
constexpr int kWidths[] = {0, 1, 4, 16};

struct Case {
  PopulationSpec spec;
  std::uint64_t seed;

  std::string describe() const {
    std::ostringstream out;
    out << "n=" << spec.node_count << " bits=" << spec.id_bits
        << " levels=" << spec.hierarchy.levels
        << " fanout=" << spec.hierarchy.fanout << " placement="
        << (spec.hierarchy.placement == Placement::kZipf ? "zipf" : "uniform")
        << " seed=" << seed;
    return out.str();
  }
};

std::vector<Case> case_list() {
  std::vector<Case> cases;
  Rng draw(20261017);
  for (const std::size_t n : kSizes) {
    for (const int bits : kIdBits) {
      if (bits < 64 && n > (std::uint64_t{1} << (bits - 1))) continue;
      for (int k = 0; k < kShapesPerSize; ++k) {
        Case c;
        c.spec.node_count = n;
        c.spec.id_bits = bits;
        c.spec.hierarchy.levels = 1 + static_cast<int>(draw.uniform(5));
        c.spec.hierarchy.fanout = 2 + static_cast<int>(draw.uniform(9));
        c.spec.hierarchy.placement =
            draw.uniform(2) == 0 ? Placement::kUniform : Placement::kZipf;
        c.seed = draw();
        cases.push_back(c);
      }
    }
  }
  return cases;
}

enum class Oracle { kPredecessor, kXorClosest, kNone };

Oracle oracle_of(std::string_view family) {
  for (const std::string_view ring :
       {"chord", "symphony", "nondet_chord", "crescendo", "clique_crescendo",
        "cacophony", "nondet_crescendo"}) {
    if (family == ring) return Oracle::kPredecessor;
  }
  if (family == "kademlia" || family == "kandy") return Oracle::kXorClosest;
  return Oracle::kNone;
}

/// Brute-force destination: the node with the largest ID <= key (wrapping
/// to the largest ID), or the node minimizing XOR distance to the key.
NodeIndex oracle_target(const OverlayNetwork& net, NodeId key, Oracle o) {
  NodeIndex best = 0;
  for (NodeIndex i = 1; i < net.size(); ++i) {
    if (o == Oracle::kXorClosest) {
      if ((net.id(i) ^ key) < (net.id(best) ^ key)) best = i;
    } else {
      // Clockwise distance from the candidate to the key: the predecessor
      // minimizes it.
      const IdSpace& space = net.space();
      if (space.ring_distance(net.id(i), key) <
          space.ring_distance(net.id(best), key)) {
        best = i;
      }
    }
  }
  return best;
}

/// Calls `fn` with the family's concrete router over `links`.
template <typename Fn>
void with_router(std::string_view family, const OverlayNetwork& net,
                 const LinkTable& links, Fn&& fn) {
  if (family == "can") {
    fn(CanRouter(net, links));
  } else if (family == "cancan") {
    fn(CanCanRouter(net, std::make_shared<const CanCanZones>(net), links));
  } else if (family == "chord_prox" || family == "crescendo_prox") {
    fn(GroupRouter(net,
                   std::make_shared<const GroupedOverlay>(net),
                   links));
  } else if (oracle_of(family) == Oracle::kXorClosest) {
    fn(XorRouter(net, links));
  } else {
    fn(RingRouter(net, links));
  }
}

/// The registry stepper walked at candidate 0, guarded like the walk.
RouteProbe walk_stepper(const Stepper& stepper, const Query& q,
                        int max_hops) {
  std::uint64_t state = 0;
  NodeIndex at = q.from;
  NodeIndex next[1];
  for (int hops = 0; hops < max_hops; ++hops) {
    const StepResult step = stepper(at, q.key, state, next);
    if (step.done) return {at, hops, step.ok, false};
    at = next[0];
  }
  return {at, max_hops, false, true};
}

/// Checks that every mode of `router` agrees with probe() on every query
/// and that every lookup succeeds, ending at the oracle's node. Returns
/// the probes.
template <typename Router>
std::vector<RouteProbe> check_modes(const Router& router,
                                    const Stepper& stepper, Oracle oracle,
                                    const OverlayNetwork& net,
                                    const std::vector<Query>& queries) {
  const FailureSet nobody_dead(net.size());
  std::vector<RouteProbe> expected(queries.size());
  Route scratch;
  typename Router::Scratch fault_scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Route r = router.route(q.from, q.key);
    const RouteProbe p = router.probe(q.from, q.key);
    expected[i] = p;
    EXPECT_EQ(p, (RouteProbe{r.terminal(), r.hops(), r.ok, r.hop_guard}))
        << "query " << i;
    router.route_into(q.from, q.key, scratch);
    EXPECT_EQ(scratch.path, r.path) << "query " << i;
    EXPECT_EQ(scratch.ok, r.ok) << "query " << i;
    EXPECT_EQ(walk_stepper(stepper, q, router.kernel().max_hops()), p)
        << "stepper, query " << i;
    DropRoller no_drops;
    const ResilientProbe rp =
        router.probe(q.from, q.key, nobody_dead, no_drops, fault_scratch);
    EXPECT_EQ(rp.to_probe(), p) << "failure-aware, query " << i;
    EXPECT_EQ(rp.retries, 0) << "query " << i;
    EXPECT_EQ(rp.fallback_hops, 0) << "query " << i;
    // Built by the family's own builder and routed fault-free, every
    // lookup must succeed.
    EXPECT_TRUE(p.ok) << "query " << i;
    if (oracle != Oracle::kNone) {
      EXPECT_EQ(p.terminal, oracle_target(net, q.key, oracle))
          << "oracle, query " << i;
    }
    if (::testing::Test::HasFailure()) return expected;
  }
  std::vector<RouteProbe> out(queries.size());
  const int saved = probe_batch_width();
  for (const int width : kWidths) {
    set_probe_batch_width(width);
    router.probe_batch(queries, out);
    EXPECT_EQ(out, expected) << "probe_batch width " << width;
  }
  set_probe_batch_width(saved);
  return expected;
}

template <typename Router>
void check_family(const Router& router, std::string_view family,
                  const registry::FamilyEntry& entry,
                  const OverlayNetwork& net, const LinkTable& links,
                  const std::vector<Query>& queries) {
  SCOPED_TRACE(std::string(family));
  const std::vector<RouteProbe> expected =
      check_modes(router, entry.make_stepper(net, links), oracle_of(family),
                  net, queries);
  if (::testing::Test::HasFailure()) return;
  const QueryEngine engine(net);
  std::vector<RouteProbe> per_query;
  entry.make_router(net, links).run(engine, queries, &per_query);
  EXPECT_EQ(per_query, expected) << "registry batch";
}

/// Symphony's greedy-with-lookahead (Section 3.1) as a brute-force oracle,
/// a plain double loop over neighbors/neighbor_ids: at each node it scans
/// every one- and two-hop plan that never overshoots the key, keeps the
/// first plan with the least remaining distance, and takes both of its
/// hops. It stops where no plan makes progress (ok iff that node is
/// responsible for the key), or after `max_hops` hops.
Route lookahead_oracle(const OverlayNetwork& net, const LinkTable& links,
                       NodeIndex from, NodeId key, int max_hops) {
  const IdSpace& space = net.space();
  Route r;
  r.path = {from};
  NodeIndex current = from;
  while (r.hops() < max_hops) {
    const NodeId cur_id = net.id(current);
    const std::uint64_t remaining = space.ring_distance(cur_id, key);
    NodeIndex best_v = current;
    NodeIndex best_w = current;
    std::uint64_t best_final = remaining;
    const auto neighbors = links.neighbors(current);
    const auto neighbor_ids = links.neighbor_ids(current);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const std::uint64_t covered1 =
          space.ring_distance(cur_id, neighbor_ids[j]);
      if (covered1 == 0 || covered1 > remaining) continue;
      const std::uint64_t after1 = remaining - covered1;
      if (after1 < best_final) {
        best_final = after1;
        best_v = best_w = neighbors[j];
      }
      const auto second = links.neighbors(neighbors[j]);
      const auto second_ids = links.neighbor_ids(neighbors[j]);
      for (std::size_t k = 0; k < second.size(); ++k) {
        const std::uint64_t covered2 =
            space.ring_distance(neighbor_ids[j], second_ids[k]);
        if (covered2 == 0 || covered2 > after1) continue;
        if (after1 - covered2 < best_final) {
          best_final = after1 - covered2;
          best_v = neighbors[j];
          best_w = second[k];
        }
      }
    }
    if (best_v == current) {
      r.ok = current == net.responsible(key);
      return r;
    }
    r.path.push_back(best_v);
    if (best_w != best_v && r.hops() < max_hops) r.path.push_back(best_w);
    current = r.path.back();
  }
  r.hop_guard = true;
  return r;
}

/// LookaheadRouter::route against the oracle, per lookup: path and ok.
/// Returns the oracle's probes.
std::vector<RouteProbe> check_lookahead_oracle(
    const LookaheadRouter& router, const OverlayNetwork& net,
    const LinkTable& links, const std::vector<Query>& queries) {
  std::vector<RouteProbe> want(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Route o = lookahead_oracle(net, links, q.from, q.key,
                                     router.kernel().max_hops());
    want[i] = RouteProbe{o.terminal(), o.hops(), o.ok, o.hop_guard};
    const Route r = router.route(q.from, q.key);
    EXPECT_EQ(r.path, o.path) << "query " << i;
    EXPECT_EQ(r.ok, o.ok) << "query " << i;
    if (::testing::Test::HasFailure()) break;
  }
  return want;
}

TEST(EquivalenceSweep, EveryModeAgreesAndMatchesTheOracle) {
  for (const Case& c : case_list()) {
    SCOPED_TRACE(c.describe());
    Rng rng(c.seed);
    const OverlayNetwork net = make_population(c.spec, rng);
    const auto queries = uniform_workload(net, kLookups, Rng(c.seed + 1));
    for (const registry::FamilyEntry& entry : registry::families()) {
      const LinkTable links = registry::build_family(net, entry.name, c.seed);
      with_router(entry.name, net, links, [&](const auto& router) {
        check_family(router, entry.name, entry, net, links, queries);
      });
      if (oracle_of(entry.name) == Oracle::kPredecessor &&
          entry.name != "clique_crescendo") {
        SCOPED_TRACE("lookahead over " + std::string(entry.name));
        const LookaheadRouter lookahead(net, links);
        // check_modes ties probe and probe_batch at every width to route;
        // the oracle ties route to the committed-pair walk.
        const std::vector<RouteProbe> got =
            check_modes(lookahead, lookahead.stepper(), Oracle::kPredecessor,
                        net, queries);
        if (!::testing::Test::HasFailure()) {
          EXPECT_EQ(check_lookahead_oracle(lookahead, net, links, queries),
                    got);
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// A lookahead lookup stops at the shared hop guard, counted in hops as
// every router's is (so possibly between the two hops of a pair): on a
// successor-only ring a far lookup ends after hop_guard(net) hops.
TEST(EquivalenceSweep, LookaheadStopsAtTheSharedHopGuard) {
  const IdSpace space(8);
  std::vector<OverlayNode> nodes;
  for (NodeId id = 0; id < 256; id += 2) nodes.push_back({id, {}, -1});
  const OverlayNetwork net(space, std::move(nodes));
  const LinkTable links = LinkTable::build(
      net.ids(), [&](NodeIndex m, LinkRow& row) {
        row.push_back((m + 1) % static_cast<NodeIndex>(net.size()));
      });
  const LookaheadRouter router(net, links);
  const int guard = hop_guard(net);
  ASSERT_EQ(guard, 48);
  ASSERT_EQ(router.kernel().max_hops(), guard);

  // 127 hops away: the guard stops the lookup at node 48.
  const Route far = router.route(0, 254);
  EXPECT_TRUE(far.hop_guard);
  EXPECT_FALSE(far.ok);
  EXPECT_EQ(far.hops(), guard);
  EXPECT_EQ(far.terminal(), static_cast<NodeIndex>(guard));
  for (int i = 0; i <= guard; ++i) {
    EXPECT_EQ(far.path[static_cast<std::size_t>(i)],
              static_cast<NodeIndex>(i));
  }
  const RouteProbe far_probe{far.terminal(), far.hops(), false, true};
  EXPECT_EQ(router.probe(0, 254), far_probe);

  // 47 hops away (an odd count: the last plan is a single hop) arrives.
  const Route near = router.route(0, 94);
  EXPECT_TRUE(near.ok);
  EXPECT_FALSE(near.hop_guard);
  EXPECT_EQ(near.hops(), 47);

  std::vector<Query> queries;
  for (NodeIndex from = 0; from < net.size(); from += 5) {
    for (NodeId key = 1; key < 256; key += 7) queries.push_back({from, key});
  }
  const std::vector<RouteProbe> want =
      check_lookahead_oracle(router, net, links, queries);
  std::vector<RouteProbe> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = router.probe(queries[i].from, queries[i].key);
  }
  EXPECT_EQ(out, want) << "probe";
  const int saved = probe_batch_width();
  for (const int width : {0, 1, 16}) {
    set_probe_batch_width(width);
    router.probe_batch(queries, out);
    EXPECT_EQ(out, want) << "probe_batch width " << width;
  }
  set_probe_batch_width(saved);
}

}  // namespace
}  // namespace canon
