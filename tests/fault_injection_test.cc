// The resilience-engine contracts, pinned per family through the registry:
//
//   1. Zero cost when healthy: run_resilient with an empty FaultPlan is
//      field- and per-query-identical to the plain batch engine, and
//      leaves the same load ledger, traces and query.scratch charge.
//   2. Graceful degradation: success rates are monotone non-increasing in
//      the kill fraction (fail_fraction's kill sets are nested).
//   3. Thread invariance: resilient batches — faults, drops and all — are
//      identical at every --threads.
//   4. Journaled faults: materialize() records every crash with strict
//      sequence numbers.
//   5. Drop-retry: transient drops cost retries, not correctness, within
//      the per-hop retry budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "telemetry/journal.h"
#include "telemetry/load_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/trace.h"

namespace canon {
namespace {

constexpr std::uint64_t kSeed = 20260806;

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

OverlayNetwork make_net(std::size_t n = 256) {
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  Rng rng(kSeed);
  return make_population(spec, rng);
}

void expect_same_summary(const Summary& plain, const Summary& res,
                         std::string_view family) {
  EXPECT_EQ(res.count(), plain.count()) << family;
  EXPECT_EQ(res.sum(), plain.sum()) << family;
  if (plain.count() > 0 && res.count() > 0) {
    EXPECT_EQ(res.mean(), plain.mean()) << family;
    EXPECT_EQ(res.min(), plain.min()) << family;
    EXPECT_EQ(res.max(), plain.max()) << family;
    EXPECT_EQ(res.variance(), plain.variance()) << family;
  }
}

void expect_same_base(const QueryStats& plain, const ResilientStats& res,
                      std::string_view family) {
  EXPECT_EQ(res.base.queries, plain.queries) << family;
  EXPECT_EQ(res.base.failures, plain.failures) << family;
  EXPECT_EQ(res.base.hop_guard_exits, plain.hop_guard_exits) << family;
  EXPECT_EQ(res.base.total_hops, plain.total_hops) << family;
  EXPECT_EQ(res.base.hops_by_level, plain.hops_by_level) << family;
  expect_same_summary(plain.hops, res.base.hops, family);
  expect_same_summary(plain.cost, res.base.cost, family);
  EXPECT_EQ(res.skipped_dead_source, 0u) << family;
  EXPECT_EQ(res.retries, 0u) << family;
  EXPECT_EQ(res.fallback_hops, 0u) << family;
}

/// A recorded trace as comparable text: one line per lookup, every hop.
std::string trace_text(const telemetry::RecordingTraceSink& sink) {
  std::ostringstream out;
  for (const auto& t : sink.lookups()) {
    out << t.from << ' ' << t.key << ' ' << t.done << t.ok << ' '
        << t.terminal << ':';
    for (const telemetry::HopRecord& h : t.hops) {
      out << ' ' << h.lookup << '/' << h.from << '>' << h.to << '#'
          << h.hop_index << '@' << h.level << '+' << h.candidates;
    }
    out << '\n';
  }
  return out.str();
}

/// Engine set-ups of the empty-plan test: probe mode; full mode with a
/// load accountant, level tracking and a path cost; full mode with a
/// trace sink.
enum class EngineSetup { kProbe, kFull, kTraced };

/// What a batch leaves behind besides its stats.
struct Observed {
  std::vector<RouteProbe> per_query;
  std::string load;   ///< LoadAccountant::to_json() (kFull)
  std::string trace;  ///< trace_text() (kTraced)
  telemetry::MemoryAccountant::TagStats scratch;  ///< query.scratch tag
};

/// Installs a fresh memory accountant for one scope.
struct MemLedger {
  telemetry::MemoryAccountant acct;
  MemLedger() { telemetry::install_mem_accountant(&acct); }
  ~MemLedger() { telemetry::install_mem_accountant(nullptr); }
  MemLedger(const MemLedger&) = delete;
  MemLedger& operator=(const MemLedger&) = delete;
};

/// Runs `batch(engine, &seen.per_query)` on a fresh engine set up for
/// `setup`, under a fresh memory accountant, and fills `seen`.
template <typename Batch>
auto observe(const OverlayNetwork& net, EngineSetup setup, Observed& seen,
             Batch&& batch) {
  QueryEngine engine(net);
  telemetry::LoadAccountant load(net.domains(), net.ids());
  telemetry::RecordingTraceSink sink;
  if (setup == EngineSetup::kFull) {
    engine.set_load(&load);
    engine.set_level_tracking(true);
    engine.set_cost([](std::uint32_t a, std::uint32_t b) {
      return static_cast<double>((a * 31 + b * 17) % 97 + 1);
    });
  } else if (setup == EngineSetup::kTraced) {
    engine.set_trace(&sink);
  }
  const MemLedger ledger;
  const auto stats = batch(engine, &seen.per_query);
  if (setup == EngineSetup::kFull) seen.load = load.to_json().dump();
  seen.trace = trace_text(sink);
  const auto tag = ledger.acct.tags().find("query.scratch");
  if (tag != ledger.acct.tags().end()) seen.scratch = tag->second;
  return stats;
}

TEST(FaultInjection, EmptyPlanMatchesPlainEngineEveryFamily) {
  const auto net = make_net();
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  const FaultPlan empty;
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    for (const EngineSetup setup :
         {EngineSetup::kProbe, EngineSetup::kFull, EngineSetup::kTraced}) {
      SCOPED_TRACE(static_cast<int>(setup));
      Observed plain_seen;
      Observed res_seen;
      const QueryStats plain = observe(
          net, setup, plain_seen,
          [&](const QueryEngine& e, std::vector<RouteProbe>* pq) {
            return router.run(e, queries, pq);
          });
      const ResilientStats res = observe(
          net, setup, res_seen,
          [&](const QueryEngine& e, std::vector<RouteProbe>* pq) {
            return router.run_resilient(e, queries, empty, pq);
          });
      expect_same_base(plain, res, entry.name);
      EXPECT_EQ(res_seen.per_query, plain_seen.per_query) << entry.name;
      EXPECT_EQ(res_seen.load, plain_seen.load) << entry.name;
      EXPECT_EQ(res_seen.trace, plain_seen.trace) << entry.name;
      EXPECT_GT(plain_seen.scratch.charges, 0u) << entry.name;
      EXPECT_EQ(res_seen.scratch.charges, plain_seen.scratch.charges)
          << entry.name;
      EXPECT_EQ(res_seen.scratch.peak, plain_seen.scratch.peak)
          << entry.name;
    }
  }
}

TEST(FaultInjection, SuccessMonotoneInKillFractionEveryFamily) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    double prev = 2.0;
    for (const double fraction : {0.0, 0.1, 0.3, 0.5}) {
      const FaultPlan plan =
          FaultPlan::fail_fraction(net.size(), fraction, kSeed);
      const ResilientStats st = router.run_resilient(engine, queries, plan);
      // Non-increasing up to a small slack: a deeper kill set also removes
      // sources (their queries leave the attempted pool) and reassigns
      // live responsibility, so individual lookups can flip to success
      // even though the population degrades.
      EXPECT_LE(st.success_rate(), prev + 0.02)
          << entry.name << " at fraction " << fraction;
      if (fraction == 0.0) {
        EXPECT_EQ(st.success_rate(), 1.0) << entry.name;
      }
      prev = st.success_rate();
    }
  }
}

TEST(FaultInjection, ResilientBatchesAreThreadInvariant) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 700, Rng(kSeed).fork(7));
  FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.3, kSeed);
  plan.set_drop(0.05);
  ThreadGuard guard;
  for (const auto& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, kSeed);
    const auto router = entry.make_router(net, links);
    set_parallel_threads(1);
    std::vector<RouteProbe> base_probes;
    const ResilientStats base =
        router.run_resilient(engine, queries, plan, &base_probes);
    for (const int threads : {2, 7}) {
      set_parallel_threads(threads);
      std::vector<RouteProbe> probes;
      const ResilientStats st =
          router.run_resilient(engine, queries, plan, &probes);
      EXPECT_EQ(probes, base_probes)
          << entry.name << " at threads=" << threads;
      EXPECT_EQ(st.base.queries, base.base.queries) << entry.name;
      EXPECT_EQ(st.base.failures, base.base.failures) << entry.name;
      EXPECT_EQ(st.base.total_hops, base.base.total_hops) << entry.name;
      EXPECT_EQ(st.skipped_dead_source, base.skipped_dead_source)
          << entry.name;
      EXPECT_EQ(st.retries, base.retries) << entry.name;
      EXPECT_EQ(st.fallback_hops, base.fallback_hops) << entry.name;
    }
  }
}

TEST(FaultInjection, MaterializeJournalsEveryCrashWithStrictSeq) {
  const auto net = make_net();
  const FaultPlan plan = FaultPlan::fail_fraction(net.size(), 0.3, kSeed);
  std::stringstream out;
  telemetry::EventJournal journal(out);
  const FailureSet dead = plan.materialize(net, &journal);
  EXPECT_GT(dead.dead_count(), 0u);
  // read_journal itself throws unless seq is exactly 0,1,2,...
  const auto events = telemetry::read_journal(out);
  ASSERT_EQ(events.size(), dead.dead_count());
  for (const auto& e : events) {
    EXPECT_EQ(e.get("type")->as_string(), "crash");
    const auto node = static_cast<std::uint32_t>(e.get("node")->as_int());
    EXPECT_TRUE(dead.dead(node));
    EXPECT_EQ(static_cast<std::uint64_t>(e.get("id")->as_int()),
              net.id(node));
    ASSERT_NE(e.get("at"), nullptr);
  }
}

TEST(FaultInjection, DropsCostRetriesNotCorrectness) {
  const auto net = make_net();
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, 400, Rng(kSeed).fork(7));
  const LinkTable links = registry::build_family(net, "crescendo", kSeed);
  const auto router = registry::family("crescendo").make_router(net, links);
  FaultPlan plan;  // drops only, nobody dead
  plan.set_drop(0.05);
  const ResilientStats st = router.run_resilient(engine, queries, plan);
  EXPECT_GT(st.retries, 0u);
  EXPECT_EQ(st.skipped_dead_source, 0u);
  // Mid-route drops are retried on alternate candidates, but a dropped
  // candidate stays banned for the hop, so a drop on a hop whose only
  // viable candidate is the destination can still lose the lookup: loss
  // stays well under the raw drop rate, not at zero.
  EXPECT_GE(st.success_rate(), 1.0 - 0.05);
  EXPECT_LT(st.base.failures, st.base.queries / 10);
}

TEST(FaultInjection, NestedKillSetsAreActuallyNested) {
  const auto net = make_net();
  const FailureSet d10 =
      FaultPlan::fail_fraction(net.size(), 0.1, kSeed).materialize(net);
  const FailureSet d30 =
      FaultPlan::fail_fraction(net.size(), 0.3, kSeed).materialize(net);
  EXPECT_GT(d30.dead_count(), d10.dead_count());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (d10.dead(i)) {
      EXPECT_TRUE(d30.dead(i)) << i;
    }
  }
}

}  // namespace
}  // namespace canon
