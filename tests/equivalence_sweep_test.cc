// The routing-mode equivalence contract as a seeded differential sweep.
//
// Every family routes through one hop kernel and three drivers, so its
// modes must agree on every lookup: route, route_into, probe, probe_batch
// at every batch width, the registry stepper walked at candidate 0, the
// registry batch wrapper, and the failure-aware walk under an empty fault
// plan (with no retries and no fallback hops). Every lookup must succeed,
// and a ring or XOR family's must end where a brute-force oracle says: the
// linear-scan predecessor of the key, or the linear-scan XOR minimum.
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

template <typename Router>
void check_family(const Router& router, std::string_view family,
                  const registry::FamilyEntry& entry,
                  const OverlayNetwork& net, const LinkTable& links,
                  const std::vector<Query>& queries) {
  SCOPED_TRACE(std::string(family));
  const FailureSet nobody_dead(net.size());
  const Stepper stepper = entry.make_stepper(net, links);
  const Oracle oracle = oracle_of(family);
  std::vector<RouteProbe> expected(queries.size());
  Route scratch;
  typename Router::Scratch fault_scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Route r = router.route(q.from, q.key);
    const RouteProbe p = router.probe(q.from, q.key);
    expected[i] = p;
    ASSERT_EQ(p, (RouteProbe{r.terminal(), r.hops(), r.ok, r.hop_guard}))
        << "query " << i;
    router.route_into(q.from, q.key, scratch);
    ASSERT_EQ(scratch.path, r.path) << "query " << i;
    ASSERT_EQ(scratch.ok, r.ok) << "query " << i;
    ASSERT_EQ(walk_stepper(stepper, q, router.kernel().max_hops()), p)
        << "stepper, query " << i;
    DropRoller no_drops;
    const ResilientProbe rp =
        router.probe(q.from, q.key, nobody_dead, no_drops, fault_scratch);
    ASSERT_EQ(rp.to_probe(), p) << "failure-aware, query " << i;
    ASSERT_EQ(rp.retries, 0) << "query " << i;
    ASSERT_EQ(rp.fallback_hops, 0) << "query " << i;
    // Built by the family's own builder and routed fault-free, every
    // lookup must succeed.
    ASSERT_TRUE(p.ok) << "query " << i;
    if (oracle != Oracle::kNone) {
      ASSERT_EQ(p.terminal, oracle_target(net, q.key, oracle))
          << "oracle, query " << i;
    }
  }
  std::vector<RouteProbe> out(queries.size());
  const int saved = probe_batch_width();
  for (const int width : kWidths) {
    set_probe_batch_width(width);
    router.probe_batch(queries, out);
    EXPECT_EQ(out, expected) << "probe_batch width " << width;
  }
  set_probe_batch_width(saved);
  const QueryEngine engine(net);
  std::vector<RouteProbe> per_query;
  entry.make_router(net, links).run(engine, queries, &per_query);
  EXPECT_EQ(per_query, expected) << "registry batch";
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
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace canon
