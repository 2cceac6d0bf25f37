// Tests for the message-granularity simulator: the α=1 greedy-equivalence
// contract, the latency model, timeout/retry/drop accounting under
// faults, bounded-inbox semantics, sink wiring (late attach, detach, crash
// schedules, time series, load accounting), the paper's load-homogeneity
// claim, and the byte-identical-at-any-thread-count determinism contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/load_stats.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace canon {
namespace {

OverlayNetwork small_net(std::size_t n, int levels, std::uint64_t seed) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  return make_population(spec, rng);
}

struct Workload {
  std::vector<std::uint32_t> from;
  std::vector<NodeId> keys;
};

Workload make_workload(const OverlayNetwork& net, int count,
                       std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    w.from.push_back(static_cast<std::uint32_t>(rng.uniform(net.size())));
    w.keys.push_back(net.space().wrap(rng()));
  }
  return w;
}

/// α=1 with an inbox deep enough that no request is ever dropped.
MessageSimConfig unbounded_inbox() {
  MessageSimConfig cfg;
  cfg.inbox_capacity = std::numeric_limits<int>::max();
  return cfg;
}

void submit_all(MessageSimulator& sim, const Workload& w, double gap_ms) {
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    sim.submit(w.from[i], w.keys[i], gap_ms * static_cast<double>(i));
  }
}

/// Every number a report could be derived from, printed at full
/// precision: the determinism contract says this string is identical on
/// every run regardless of the process-wide thread count.
std::string fingerprint(const MessageSimulator& sim) {
  std::ostringstream out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out << buf;
  };
  for (const auto& lk : sim.lookups()) {
    out << lk.from << ":" << lk.key << ":" << lk.hops << ":" << lk.ok << ":"
        << lk.timeouts << ":" << lk.retries << ":";
    num(lk.issued_ms);
    num(lk.completed_ms);
  }
  const auto& t = sim.totals();
  out << "|" << t.sent << "," << t.serviced << "," << t.timeouts << ","
      << t.retries << "," << t.link_drops << "," << t.inbox_drops << ","
      << t.failures << "|";
  num(sim.now_ms());
  for (const auto l : sim.node_load()) out << l << ",";
  for (const auto d : sim.max_queue_depth()) out << d << ",";
  return out.str();
}

/// 64-bit FNV-1a: fixed by its definition, unlike std::hash, so a pinned
/// digest means the same bytes on every standard library.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(MessageSim, Alpha1MatchesGreedyRouterExactly) {
  // With no faults and α=1 the frontier walks the family's greedy chain:
  // per-lookup hop counts equal the static router's on the same workload.
  const auto net = small_net(300, 3, 2001);
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  MessageSimulator sim(net, links);  // default stepper = greedy ring
  const Workload w = make_workload(net, 200, 7);
  submit_all(sim, w, 1.0);
  sim.run();
  ASSERT_EQ(sim.lookups().size(), 200u);
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    const Route expected = router.route(w.from[i], w.keys[i]);
    const auto& lookup = sim.lookups()[i];
    EXPECT_TRUE(lookup.ok) << i;
    EXPECT_EQ(lookup.hops, expected.hops()) << i;
    EXPECT_EQ(lookup.timeouts, 0) << i;
    EXPECT_GE(lookup.completed_ms, lookup.issued_ms) << i;
  }
  EXPECT_EQ(sim.totals().timeouts, 0u);
  EXPECT_EQ(sim.totals().failures, 0u);
}

TEST(MessageSim, RegistryStepperMatchesFamilyHops) {
  // The registry's make_stepper hook must reproduce the family's route
  // choice (candidate 0 = the greedy next hop): crescendo through the
  // registry stepper equals the RingRouter hop-for-hop.
  const auto net = small_net(256, 3, 2002);
  const auto links = registry::build_family(net, "crescendo", 2002);
  const RingRouter router(net, links);
  MessageSimulator sim(net, links,
                       registry::family("crescendo").make_stepper(net, links));
  const Workload w = make_workload(net, 150, 11);
  submit_all(sim, w, 1.0);
  sim.run();
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    const Route expected = router.route(w.from[i], w.keys[i]);
    EXPECT_EQ(sim.lookups()[i].hops, expected.hops()) << i;
    EXPECT_EQ(sim.lookups()[i].ok, expected.ok) << i;
  }
}

TEST(MessageSim, EveryFamilyStepperTerminatesAndResolves) {
  // Every registry family's stepper is its router's kernel, so at α=1
  // with no faults the simulator walks the router's path: per-lookup hops
  // and ok equal the family router's batch result exactly.
  const auto net = small_net(192, 3, 2003);
  const QueryEngine engine(net);
  for (const auto& name : registry::family_names()) {
    const auto links = registry::build_family(net, name, 2003);
    MessageSimulator sim(net, links,
                         registry::family(name).make_stepper(net, links));
    const Workload w = make_workload(net, 80, 13);
    submit_all(sim, w, 1.0);
    sim.run();
    std::vector<Query> queries;
    for (std::size_t i = 0; i < w.from.size(); ++i) {
      queries.push_back({w.from[i], w.keys[i]});
    }
    std::vector<RouteProbe> expected;
    registry::family(name).make_router(net, links).run(engine, queries,
                                                       &expected);
    ASSERT_EQ(sim.lookups().size(), expected.size()) << name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto& lookup = sim.lookups()[i];
      EXPECT_GE(lookup.completed_ms, 0.0) << name << " " << i;
      EXPECT_EQ(lookup.hops, expected[i].hops) << name << " " << i;
      EXPECT_EQ(lookup.ok, expected[i].ok) << name << " " << i;
    }
  }
}

TEST(MessageSim, AlphaParallelKeepsThePathAndAddsTraffic) {
  // Advance-on-best-ranked: with no faults candidate 0 always responds,
  // so α=4 walks the same frontier chain as α=1 — it just sends more
  // speculative probes.
  const auto net = small_net(300, 3, 2004);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  MessageSimulator a1(net, links, {}, {}, cfg);
  cfg.alpha = 4;
  MessageSimulator a4(net, links, {}, {}, cfg);
  const Workload w = make_workload(net, 150, 17);
  submit_all(a1, w, 1.0);
  submit_all(a4, w, 1.0);
  a1.run();
  a4.run();
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    EXPECT_EQ(a1.lookups()[i].hops, a4.lookups()[i].hops) << i;
    EXPECT_EQ(a1.lookups()[i].ok, a4.lookups()[i].ok) << i;
  }
  EXPECT_GT(a4.totals().sent, a1.totals().sent);
}

TEST(MessageSim, TimeoutRetryAccountingUnderCrashes) {
  // 30% of the network dead from t=0: probes into the dead set expire and
  // retry up the backoff ladder, then fall back to the next candidate.
  const auto net = small_net(300, 3, 2005);
  const auto links = build_crescendo(net);
  FaultPlan timed;
  const FaultPlan kill = FaultPlan::fail_fraction(net.size(), 0.3, 99);
  for (const FaultEvent& fe : kill.events()) timed.crash(fe.node, 0);

  MessageSimConfig cfg;
  cfg.timeout_ms = 4.0;  // short ladder: the test stays fast
  MessageSimulator sim(net, links, {}, {}, cfg);
  SimSinks sinks;
  sinks.fault_plan = &timed;
  sim.attach(sinks);

  // Submit from live sources only (a dead source fails immediately).
  Rng rng(23);
  int submitted = 0;
  while (submitted < 250) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    bool dead = false;
    for (const FaultEvent& fe : timed.events()) dead |= fe.node == from;
    if (dead) continue;
    sim.submit(from, net.space().wrap(rng()),
               0.5 * static_cast<double>(submitted++));
  }
  sim.run();

  EXPECT_EQ(sim.live_nodes(), net.size() - timed.events().size());
  EXPECT_GT(sim.totals().timeouts, 0u);
  EXPECT_GE(sim.totals().timeouts, sim.totals().retries);
  std::uint64_t timeouts = 0, retries = 0, failures = 0;
  for (const auto& lookup : sim.lookups()) {
    // Every submitted lookup completes, dead hops notwithstanding.
    EXPECT_GE(lookup.completed_ms, 0.0);
    EXPECT_GE(lookup.timeouts, lookup.retries);
    timeouts += static_cast<std::uint64_t>(lookup.timeouts);
    retries += static_cast<std::uint64_t>(lookup.retries);
    failures += !lookup.ok;
  }
  EXPECT_EQ(timeouts, sim.totals().timeouts);
  EXPECT_EQ(retries, sim.totals().retries);
  EXPECT_EQ(failures, sim.totals().failures);
  // Retries only spend budget on candidates that eventually get marked
  // failed or answered; each timeout is either retried or a final strike.
  EXPECT_LT(failures, 250u) << "every lookup failed under a 30% crash";
}

TEST(MessageSim, LinkDropsRecoverViaRetries) {
  const auto net = small_net(200, 2, 2006);
  const auto links = build_crescendo(net);
  FaultPlan plan;
  plan.set_drop(0.2, 77);
  MessageSimConfig cfg;
  cfg.timeout_ms = 4.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sim.attach(sinks);
  const Workload w = make_workload(net, 200, 29);
  submit_all(sim, w, 0.5);
  sim.run();
  EXPECT_GT(sim.totals().link_drops, 0u);
  EXPECT_GT(sim.totals().retries, 0u);
  int ok = 0;
  for (const auto& lookup : sim.lookups()) ok += lookup.ok;
  // 20% per-leg drops with a 3-deep retry ladder and 8 fallback
  // candidates: nearly everything still resolves.
  EXPECT_GE(ok, 190) << ok << "/200 ok";
}

TEST(MessageSim, BoundedInboxDropsAndRecovers) {
  // Everyone asks the same key at the same instant: the owner's inbox
  // (capacity 2) overflows, the overflow recovers via sender timeouts.
  const auto net = small_net(64, 1, 2007);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.inbox_capacity = 2;
  cfg.service_ms = 1.0;
  cfg.timeout_ms = 16.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  const NodeId hot_key = net.id(13);
  for (std::uint32_t i = 0; i < 64; ++i) sim.submit(i, hot_key, 0.0);
  sim.run();
  EXPECT_GT(sim.totals().inbox_drops, 0u);
  std::uint32_t deepest = 0;
  for (const auto d : sim.max_queue_depth()) deepest = std::max(deepest, d);
  EXPECT_LE(deepest, 2u) << "inbox bound not enforced";
  for (const auto& lookup : sim.lookups()) {
    EXPECT_GE(lookup.completed_ms, 0.0);
  }
}

TEST(MessageSim, SinksFeedLoadAndTimeseries) {
  const auto net = small_net(200, 3, 2008);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::LoadAccountant load(net.domains(), net.ids());
  telemetry::TimeSeriesRecorder series(5.0);
  SimSinks sinks;
  sinks.load = &load;
  sinks.timeseries = &series;
  sim.attach(sinks);
  const Workload w = make_workload(net, 120, 31);
  submit_all(sim, w, 0.5);
  sim.run();
  // Every completed lookup's frontier path lands in the accountant...
  EXPECT_EQ(load.queries(), 120u);
  EXPECT_EQ(load.ok(), 120u);
  // ...and the recorder sees every submission, completion, and message.
  std::uint64_t issued = 0, completed = 0;
  for (const auto& win : series.windows()) {
    issued += win.issued;
    completed += win.completed;
  }
  EXPECT_EQ(issued, 120u);
  EXPECT_EQ(completed, 120u);
}

TEST(MessageSim, ValidatesConfigAndInputs) {
  const auto net = small_net(32, 1, 2009);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.alpha = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.alpha = kMaxStepCandidates + 1;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.service_ms = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  cfg = {};
  cfg.inbox_capacity = 0;
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  // Event times must never run behind the clock or be NaN: a negative or
  // non-finite hop latency, a NaN service time, deadline or backoff, a
  // submission before now_ms() or at a non-finite time, and a HopCost
  // answering negative or NaN all throw.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double hop_ms : {-1.0, kNaN, kInf}) {
    cfg = {};
    cfg.default_hop_ms = hop_ms;
    EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
                 std::invalid_argument)
        << hop_ms;
  }
  for (double MessageSimConfig::*field :
       {&MessageSimConfig::service_ms, &MessageSimConfig::timeout_ms,
        &MessageSimConfig::backoff}) {
    cfg = {};
    cfg.*field = kNaN;
    EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
                 std::invalid_argument);
  }
  cfg = {};
  cfg.retry_budget = 65537;  // attempts 0..65536 overflow the 16-bit stamp
  EXPECT_THROW(MessageSimulator(net, links, {}, {}, cfg),
               std::invalid_argument);
  MessageSimulator sim(net, links);
  EXPECT_THROW(sim.submit(99, 0, 0.0), std::out_of_range);
  for (const double at_ms : {-0.5, kNaN, kInf, -kInf}) {
    EXPECT_THROW(sim.submit(0, 0, at_ms), std::invalid_argument) << at_ms;
  }
  sim.submit(0, net.id(16), 0.0);
  sim.run();
  ASSERT_GT(sim.now_ms(), 0.0);
  EXPECT_THROW(sim.submit(0, net.id(16), sim.now_ms() / 2),
               std::invalid_argument);
  sim.submit(0, net.id(16), sim.now_ms());  // at the clock: fine
  sim.run();
  EXPECT_TRUE(sim.lookups().back().ok);
  for (const double bad_ms : {-1.0, kNaN}) {
    MessageSimulator costed(
        net, links, {}, [bad_ms](std::uint32_t, std::uint32_t) {
          return bad_ms;
        });
    costed.submit(0, net.id(16), 0.0);
    EXPECT_THROW(costed.run(), std::invalid_argument) << bad_ms;
  }
}

TEST(MessageSim, ProfileCountsEveryEventKind) {
  // One start per lookup, one timeout armed per attempt sent, one arrival
  // per attempt whose request leg was not dropped, at most one response
  // per serviced request; every lookup is queued before run(), so the
  // high-water mark covers them.
  const auto net = small_net(256, 3, 2012);
  const auto links = build_crescendo(net);
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.1, 59);
  plan.set_drop(0.05, 60);
  MessageSimConfig cfg;
  cfg.alpha = 2;
  cfg.timeout_ms = 4.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  SimSinks sinks;
  sinks.fault_plan = &plan;
  sim.attach(sinks);
  const Workload w = make_workload(net, 300, 43);
  submit_all(sim, w, 0.25);
  EXPECT_EQ(sim.totals().queue_high_water, 300u);
  sim.run();
  const auto& t = sim.totals();
  EXPECT_EQ(t.start_events, 300u);
  EXPECT_EQ(t.timeout_events, t.sent);
  EXPECT_LE(t.arrive_events, t.sent);
  EXPECT_LE(t.sent - t.arrive_events, t.link_drops);  // dropped requests
  EXPECT_LE(t.response_events, t.serviced);
  EXPECT_GE(t.queue_high_water, 300u);
  EXPECT_GT(t.timeouts, 0u);
  EXPECT_GT(t.link_drops, 0u);
}

// Event-level behaviour that every consumer of the simulator relies on:
// the latency model, queueing at busy nodes, load accounting, trace
// attach/detach, crash schedules, the time-series recorder, and the
// paper's load-homogeneity claim.

TEST(EventSim, LatencyIncludesHopsAndProcessing) {
  // One lookup alone: the source services the injection, then every hop
  // is a request leg, the target's service, and the response leg.
  const auto net = small_net(50, 1, 1002);
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.service_ms = 0.5;
  cfg.default_hop_ms = 10.0;
  cfg.timeout_ms = 100.0;  // no round trip comes near it
  MessageSimulator sim(net, links, {}, {}, cfg);
  sim.submit(0, net.id(25), 0.0);
  sim.run();
  const auto& lookup = sim.lookups()[0];
  ASSERT_TRUE(lookup.ok);
  ASSERT_GT(lookup.hops, 0);
  EXPECT_NEAR(lookup.latency_ms(), 0.5 + lookup.hops * (2 * 10.0 + 0.5),
              1e-9);
  EXPECT_EQ(sim.totals().serviced,
            static_cast<std::uint64_t>(lookup.hops + 1));
}

TEST(EventSim, BusyNodesQueueMessages) {
  // Two lookups hitting the same single-successor chain at the same time
  // must serialize at the shared nodes.
  std::vector<OverlayNode> nodes = {{0, {}, -1}, {1, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const auto links = build_crescendo(net);
  MessageSimConfig cfg;
  cfg.service_ms = 1.0;
  cfg.default_hop_ms = 0.0;
  MessageSimulator sim(net, links, {}, {}, cfg);
  sim.submit(0, 1, 0.0);  // one hop: node 0 -> node 1
  sim.submit(0, 1, 0.0);  // identical, same instant
  sim.run();
  const auto& a = sim.lookups()[0];
  const auto& b = sim.lookups()[1];
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.hops, 1);
  EXPECT_EQ(b.hops, 1);
  // Node 0 serializes the two injections, so the second lookup reaches
  // node 1 one service slot later and finishes at 3 ms, not 2 ms.
  EXPECT_EQ(sim.max_queue_depth()[0], 2u);
  EXPECT_NEAR(std::min(a.completed_ms, b.completed_ms), 2.0, 1e-9);
  EXPECT_NEAR(std::max(a.completed_ms, b.completed_ms), 3.0, 1e-9);
}

TEST(EventSim, LoadSumsToMessages) {
  const auto net = small_net(200, 2, 1003);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links, {}, {}, unbounded_inbox());
  const int kLookups = 200;
  submit_all(sim, make_workload(net, kLookups, 9), 0.1);
  sim.run();
  ASSERT_EQ(sim.totals().timeouts, 0u);
  ASSERT_EQ(sim.totals().retries, 0u);
  int total_hops = 0;
  for (const auto& lookup : sim.lookups()) total_hops += lookup.hops;
  std::uint64_t load = 0;
  for (const auto l : sim.node_load()) load += l;
  // Every hop delivers one request to its target, plus the initial
  // processing at the source.
  EXPECT_EQ(load, static_cast<std::uint64_t>(total_hops + kLookups));
  EXPECT_EQ(load, sim.totals().serviced);
}

TEST(EventSim, LateTraceAttachBackfillsBeginLookup) {
  // Attaching a trace sink after submit() backfills begin_lookup for every
  // pending lookup, so hop and end events carry an id the sink has seen.
  const auto net = small_net(300, 3, 1006);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links, {}, {}, unbounded_inbox());
  const Workload w = make_workload(net, 20, 11);
  submit_all(sim, w, 1.0);
  telemetry::RecordingTraceSink sink;
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);  // late attach: all 20 lookups are already queued
  sim.run();
  ASSERT_EQ(sink.lookups().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& traced = sink.lookups()[i];
    const auto& result = sim.lookups()[i];
    EXPECT_TRUE(traced.done);
    EXPECT_EQ(traced.ok, result.ok);
    EXPECT_EQ(traced.from, result.from);
    EXPECT_EQ(traced.key, result.key);
    EXPECT_EQ(static_cast<int>(traced.hops.size()), result.hops);
  }
}

TEST(EventSim, DetachedTraceEmitsNothing) {
  const auto net = small_net(100, 2, 1007);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links);
  telemetry::RecordingTraceSink sink;
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);
  sim.attach(SimSinks{});  // detach before anything is submitted
  sim.submit(0, net.id(50), 0.0);
  sim.run();
  EXPECT_TRUE(sim.lookups()[0].ok);
  EXPECT_TRUE(sink.lookups().empty());
}

TEST(EventSim, TimeSeriesCountsSubmissionsCompletionsAndLiveNodes) {
  const auto net = small_net(150, 2, 1007);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links, {}, {}, unbounded_inbox());
  telemetry::TimeSeriesRecorder series(10.0);

  // Attach after one submission: the recorder must backfill it.
  sim.submit(0, net.space().wrap(123456789), 0.0);
  SimSinks sinks;
  sinks.timeseries = &series;
  sim.attach(sinks);
  FaultPlan timed;
  timed.crash(1, 20);
  sinks.fault_plan = &timed;
  sim.attach(sinks);  // same recorder: no second backfill

  const int kLookups = 200;
  const Workload w = make_workload(net, kLookups - 1, 3);
  for (std::size_t i = 0; i < w.from.size(); ++i) {
    sim.submit(w.from[i], w.keys[i], 0.25 * static_cast<double>(i + 1));
  }
  sim.run();

  std::uint64_t issued = 0, completed = 0, messages = 0;
  for (const auto& win : series.windows()) {
    issued += win.issued;
    completed += win.completed;
    messages += win.messages;
  }
  EXPECT_EQ(issued, static_cast<std::uint64_t>(kLookups));
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kLookups));
  // Every serviced request is one message and one unit of node load.
  std::uint64_t total_load = 0;
  for (const auto l : sim.node_load()) total_load += l;
  EXPECT_EQ(messages, total_load);
  EXPECT_EQ(total_load, sim.totals().serviced);

  // The live-node gauge starts at the full population and drops by one
  // in the window covering the crash.
  EXPECT_EQ(series.windows().front().live, static_cast<double>(net.size()));
  EXPECT_EQ(series.windows()[series.window_index(20.0)].live,
            static_cast<double>(net.size() - 1));
}

TEST(EventSim, HierarchicalLoadStaysHomogeneous) {
  // The paper's motivation: Canon keeps the flat design's uniform load.
  // Compare the max/mean routing-load ratio of Crescendo vs flat Chord
  // under an identical concurrent random workload.
  const auto flat = small_net(500, 1, 1005);
  const auto deep = small_net(500, 4, 1005);
  double ratios[2];
  const OverlayNetwork* nets[2] = {&flat, &deep};
  for (int which = 0; which < 2; ++which) {
    const auto links = build_crescendo(*nets[which]);
    MessageSimulator sim(*nets[which], links, {}, {}, unbounded_inbox());
    submit_all(sim, make_workload(*nets[which], 3000, 77), 0.01);
    sim.run();
    double mean = 0;
    double max = 0;
    for (const auto l : sim.node_load()) {
      mean += static_cast<double>(l);
      max = std::max(max, static_cast<double>(l));
    }
    mean /= static_cast<double>(nets[which]->size());
    ratios[which] = max / mean;
  }
  // The hierarchical structure's load skew stays within 2x of flat Chord's.
  EXPECT_LE(ratios[1], ratios[0] * 2.0);
}

TEST(EventSim, FaultPlanKillsNodesAtTheScheduledInstant) {
  // Crash half the network at t=50ms. Nothing fails before the crash;
  // afterwards lookups from dead sources, and lookups that run out of live
  // candidates, fail.
  const auto net = small_net(200, 2, 1006);
  const auto links = build_crescendo(net);
  MessageSimulator sim(net, links, {}, {}, unbounded_inbox());
  EXPECT_EQ(sim.live_nodes(), net.size());
  const FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.5, 99);
  FaultPlan timed;
  for (const FaultEvent& fe : plan.events()) timed.crash(fe.node, 50);
  SimSinks sinks;
  sinks.fault_plan = &timed;
  sim.attach(sinks);
  submit_all(sim, make_workload(net, 600, 12), 0.2);
  sim.run();
  EXPECT_EQ(sim.live_nodes(), net.size() - timed.events().size());

  int failed_before = 0, failed_after = 0, ok = 0;
  for (const auto& lookup : sim.lookups()) {
    ok += lookup.ok;
    if (!lookup.ok) {
      EXPECT_GE(lookup.completed_ms, 50.0) << "failed before the crash";
      (lookup.issued_ms < 50.0 ? failed_before : failed_after)++;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed_after, 0) << "half the network dead, lookups all fine?";
}

TEST(MessageSim, ByteIdenticalAtAnyThreadCount) {
  // The engine is serial and its stable monotone queue pops events in
  // time order, ties in the order they were scheduled; the process-wide
  // thread knob must not leak into any number it produces — the contract
  // behind ctest's bench_query_determinism_congestion.
  const auto net = small_net(256, 3, 2010);
  const auto links = build_crescendo(net);
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.2, 55);
  plan.set_drop(0.05, 56);

  std::string baseline;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    MessageSimConfig cfg;
    cfg.alpha = 2;
    cfg.timeout_ms = 4.0;
    MessageSimulator sim(net, links, {}, {}, cfg);
    SimSinks sinks;
    sinks.fault_plan = &plan;
    sim.attach(sinks);
    const Workload w = make_workload(net, 300, 37);
    submit_all(sim, w, 0.25);
    sim.run();
    const std::string fp = fingerprint(sim);
    if (baseline.empty()) {
      baseline = fp;
      EXPECT_GT(sim.totals().timeouts, 0u);  // the run exercises faults
    } else {
      EXPECT_EQ(fp, baseline) << "report differs at --threads=" << threads;
    }
  }
  set_parallel_threads(0);
}

TEST(MessageSim, PinnedOutcomeDigest) {
  // Every number fingerprint() prints, hashed, for runs that lean on the
  // order of simultaneous and near-simultaneous events: α=1 and α=3, 64
  // submissions at one instant, zero-latency links (events scheduled at
  // the current time), an overflowing 4-slot inbox, a crash / revive
  // schedule with 5% drops, and a 40 ms ladder that backs off.
  // The constants were recorded with the binary-heap event queue that the
  // radix queue replaced, so any change to the order these runs depend
  // on shows here.
  const auto net = small_net(256, 3, 2011);
  const auto crescendo = build_crescendo(net);
  const auto kademlia = registry::build_family(net, "kademlia", 2011);
  const Stepper xor_stepper =
      registry::family("kademlia").make_stepper(net, kademlia);
  // Pair-dependent latencies with non-dyadic fractions, so event times
  // fill their mantissas the way transit-stub latencies do.
  const HopCost latency = [](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t mix = (a * 2654435761u) ^ (b * 40503u);
    return 1.0 + static_cast<double>(mix % 1000) / 997.0;
  };
  const Workload w = make_workload(net, 400, 41);

  struct Case {
    const char* name;
    std::uint64_t digest;
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;

  for (const int alpha : {1, 3}) {  // the greedy ring, paced submissions
    MessageSimConfig cfg;
    cfg.alpha = alpha;
    MessageSimulator sim(net, crescendo, {}, latency, cfg);
    submit_all(sim, w, 0.3);
    sim.run();
    got.emplace_back("crescendo/a" + std::to_string(alpha),
                     fnv1a(fingerprint(sim)));
  }
  {  // α=3 through the XOR stepper.
    MessageSimConfig cfg;
    cfg.alpha = 3;
    MessageSimulator sim(net, kademlia, xor_stepper, latency, cfg);
    submit_all(sim, w, 0.3);
    sim.run();
    got.emplace_back("kademlia/a3", fnv1a(fingerprint(sim)));
  }
  {  // 64 lookups submitted at the same instant, unit hop latency.
    MessageSimConfig cfg;
    cfg.alpha = 2;
    MessageSimulator sim(net, crescendo, {}, {}, cfg);
    for (std::size_t i = 0; i < 64; ++i) {
      sim.submit(w.from[i], w.keys[i], 3.0);
    }
    sim.run();
    got.emplace_back("same_instant", fnv1a(fingerprint(sim)));
  }
  {  // Zero link latency: a response's next probe lands at the same
     // instant, queued behind events already due then.
    MessageSimConfig cfg;
    cfg.alpha = 3;
    cfg.default_hop_ms = 0.0;
    cfg.service_ms = 0.5;
    MessageSimulator sim(net, crescendo, {}, {}, cfg);
    for (std::size_t i = 0; i < 128; ++i) {  // 16 at each whole ms
      sim.submit(w.from[i % 8], w.keys[i], static_cast<double>(i / 16));
    }
    sim.run();
    got.emplace_back("zero_hop", fnv1a(fingerprint(sim)));
  }
  {  // A 4-slot inbox overflowing under a hot key.
    MessageSimConfig cfg;
    cfg.inbox_capacity = 4;
    cfg.service_ms = 1.0;
    cfg.timeout_ms = 12.0;
    MessageSimulator sim(net, crescendo, {}, latency, cfg);
    const NodeId hot_key = net.id(77);
    for (std::size_t i = 0; i < 200; ++i) {
      sim.submit(w.from[i], hot_key, 0.1 * static_cast<double>(i));
    }
    sim.run();
    EXPECT_GT(sim.totals().inbox_drops, 0u);
    got.emplace_back("inbox4", fnv1a(fingerprint(sim)));
  }
  {  // Scheduled crashes and revivals plus 5% per-leg drops.
    FaultPlan plan;
    for (std::uint32_t node = 0; node < net.size(); node += 5) {
      plan.crash(node, 10 + node % 40);
      if (node % 3 == 0) plan.revive(node, 60 + node % 50);
    }
    plan.set_drop(0.05, 57);
    MessageSimConfig cfg;
    cfg.alpha = 2;
    cfg.timeout_ms = 6.0;
    MessageSimulator sim(net, crescendo, {}, latency, cfg);
    SimSinks sinks;
    sinks.fault_plan = &plan;
    sim.attach(sinks);
    submit_all(sim, w, 0.3);
    sim.run();
    EXPECT_GT(sim.totals().link_drops, 0u);
    EXPECT_GT(sim.totals().timeouts, 0u);
    got.emplace_back("crash_revive_drop", fnv1a(fingerprint(sim)));
  }
  {  // A 40 ms first deadline against a dead fifth: retries back off.
    const FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.2, 58);
    MessageSimConfig cfg;
    cfg.timeout_ms = 40.0;
    MessageSimulator sim(net, crescendo, {}, latency, cfg);
    SimSinks sinks;
    sinks.fault_plan = &plan;
    sim.attach(sinks);
    submit_all(sim, w, 0.3);
    sim.run();
    EXPECT_GT(sim.totals().retries, 0u);
    got.emplace_back("backoff40", fnv1a(fingerprint(sim)));
  }

  const Case kPinned[] = {
      {"crescendo/a1", 0x68c95e49f2bd9cfdULL},
      {"crescendo/a3", 0xadbc54359199222eULL},
      {"kademlia/a3", 0x09d5832ba574bd8cULL},
      {"same_instant", 0xa7f6de5e85401035ULL},
      {"zero_hop", 0xc49f06074ab01ba8ULL},
      {"inbox4", 0xf1984bfe387a77e7ULL},
      {"crash_revive_drop", 0x519e8280f358d1afULL},
      {"backoff40", 0xd0e1d959fc1b3899ULL},
  };
  ASSERT_EQ(got.size(), std::size(kPinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPinned[i].name);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got[i].second));
    EXPECT_EQ(got[i].second, kPinned[i].digest)
        << got[i].first << " digest is now " << hex;
  }
}

}  // namespace
}  // namespace canon
