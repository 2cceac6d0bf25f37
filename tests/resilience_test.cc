// Tests for failure-aware routing (leaf-set fallback).
#include <gtest/gtest.h>

#include "canon/crescendo.h"
#include "common/rng.h"
#include "dht/chord.h"
#include "overlay/population.h"
#include "overlay/routing.h"

namespace canon {
namespace {

PopulationSpec spec_of(std::size_t n, int levels) {
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  return spec;
}

TEST(FailureSet, TracksState) {
  FailureSet f(5);
  EXPECT_FALSE(f.dead(3));
  f.kill(3);
  EXPECT_TRUE(f.dead(3));
  EXPECT_EQ(f.dead_count(), 1u);
  f.revive(3);
  EXPECT_FALSE(f.dead(3));
  EXPECT_EQ(f.dead_count(), 0u);
}

TEST(ResilientRouting, NoFailuresMatchesPlainGreedy) {
  Rng rng(901);
  const auto net = make_population(spec_of(400, 3), rng);
  const auto links = build_crescendo(net);
  const FailureSet failures(net.size());
  const RingRouter router(net, links);
  for (int t = 0; t < 200; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route a = router.route(from, key);
    const Route b = router.route(from, key, failures);
    EXPECT_TRUE(b.ok);
    EXPECT_EQ(b.terminal(), a.terminal());
  }
}

TEST(ResilientRouting, LiveResponsibleSkipsDeadPredecessors) {
  Rng rng(902);
  const auto net = make_population(spec_of(100, 1), rng);
  const auto links = build_crescendo(net);
  FailureSet failures(net.size());
  const NodeId key = net.space().wrap(rng());
  const std::uint32_t owner = net.responsible(key);
  failures.kill(owner);
  const RingRouter router(net, links);
  const std::uint32_t fallback = router.kernel().live_responsible(key, failures);
  EXPECT_NE(fallback, owner);
  // The fallback is the next live predecessor.
  EXPECT_FALSE(failures.dead(fallback));
}

class FailureRateTest : public ::testing::TestWithParam<int> {};

TEST_P(FailureRateTest, SurvivesRandomFailures) {
  const int percent = GetParam();
  Rng rng(903 + percent);
  const auto net = make_population(spec_of(600, 3), rng);
  const auto links = build_crescendo(net);
  FailureSet failures(net.size());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (rng.uniform(100) < static_cast<std::uint64_t>(percent)) {
      failures.kill(i);
    }
  }
  const RingRouter router(net, links, /*leaf_set=*/8);
  int ok = 0;
  int total = 0;
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    if (failures.dead(from)) continue;
    ++total;
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key, failures);
    ok += r.ok;
    // Every hop must be live.
    for (const auto hop : r.path) EXPECT_FALSE(failures.dead(hop));
  }
  // With an 8-deep leaf set, stalls need 8+ consecutive dead successors:
  // vanishingly rare at these rates.
  EXPECT_GE(ok, total * 99 / 100) << "failure rate " << percent << "%";
}

// The lookahead kernel under the same failures, both routers at the
// default leaf set: its plans count only live second hops, the ring
// kernel's leaf sets answer where nothing live makes progress, and the
// failure-aware route and probe agree.
TEST_P(FailureRateTest, LookaheadSurvivesRandomFailures) {
  const int percent = GetParam();
  Rng rng(905 + percent);
  const auto net = make_population(spec_of(600, 3), rng);
  const auto links = build_crescendo(net);
  FailureSet failures(net.size());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (rng.uniform(100) < static_cast<std::uint64_t>(percent)) {
      failures.kill(i);
    }
  }
  const LookaheadRouter router(net, links);
  const RingRouter ring(net, links);
  FaultScratch scratch;
  int ok = 0;
  int greedy_ok = 0;
  int total = 0;
  for (int t = 0; t < 300; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    if (failures.dead(from)) continue;
    ++total;
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key, failures);
    ok += r.ok;
    for (const auto hop : r.path) EXPECT_FALSE(failures.dead(hop));
    DropRoller no_drops;
    const ResilientProbe p =
        router.probe(from, key, failures, no_drops, scratch);
    EXPECT_EQ(p.to_probe(),
              (RouteProbe{r.terminal(), r.hops(), r.ok, r.hop_guard}));
    // A successful lookup ends where the greedy router's does: at the
    // key's live predecessor.
    const Route greedy = ring.route(from, key, failures);
    greedy_ok += greedy.ok;
    if (r.ok && greedy.ok) {
      EXPECT_EQ(r.terminal(), greedy.terminal());
    }
  }
  EXPECT_GE(ok, greedy_ok) << "failure rate " << percent << "%";
  EXPECT_GE(ok, total * 99 / 100) << "failure rate " << percent << "%";
}

INSTANTIATE_TEST_SUITE_P(Rates, FailureRateTest,
                         ::testing::Values(5, 15, 30));

TEST(ResilientRouting, RejectsDeadSource) {
  Rng rng(904);
  const auto net = make_population(spec_of(50, 1), rng);
  const auto links = build_crescendo(net);
  FailureSet failures(net.size());
  failures.kill(0);
  const RingRouter router(net, links);
  EXPECT_THROW(router.route(0, 1, failures), std::invalid_argument);
}

}  // namespace
}  // namespace canon
