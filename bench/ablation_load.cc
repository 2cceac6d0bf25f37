// Ablation A9: the load observatory. The paper's motivation for Canon is
// getting hierarchy WITHOUT hierarchical systems' hot spots, and §5 claims
// traffic between nodes of one domain stays inside that domain. Both are
// measured here:
//
//   Section A (per-levels rows): an identical hot-key (Zipf) or uniform
//   workload routed through Crescendo at 1-5 levels via the batch
//   QueryEngine with a LoadAccountant attached — per-node load spread
//   (mean, max, Gini), hotspot nodes/keys, per-domain traffic shares, and
//   the domain-confinement ratio, which must be exactly 1.0 for every
//   hierarchical row. Each JSON row carries the full "load" section; the
//   accountant merges per-shard tallies in fixed shard order, so rows are
//   byte-identical at any --threads (ctest bench_query_determinism_load).
//
//   Section B (one "crash_curve" row): the message simulator runs the
//   concurrent version of the workload at α=1 while a FaultPlan crashes a
//   fraction of nodes mid-run; a TimeSeriesRecorder turns the degradation
//   into a curve (lookups/s, failures/s, live nodes) emitted as the row's
//   "timeseries" array. Lookups are iterative: a probe to a crashed node
//   times out, and after its retries the lookup routes around it, so only
//   lookups that run out of live candidates (or start at a dead node)
//   fail. The simulator is serial, so this too is thread-invariant.
#include <iostream>
#include <limits>
#include <string>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "telemetry/load_stats.h"
#include "telemetry/timeseries.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_load");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 8192, 1);
  const std::uint64_t lookups = run.u64("lookups", 50000, 1);
  const std::string workload = run.str("workload", "zipf");
  const double theta = run.f64("theta", 1.25);
  const double crash_fraction = run.fraction("crash-fraction", 0.25);
  run.header("Ablation A9: the load observatory",
             "per-node load spread, hotspots, per-domain traffic shares and "
             "the §5 confinement ratio; flat Chord vs Crescendo levels 2-5, "
             "plus a crash-curve time series");

  TextTable table({"levels", "mean hops", "mean load", "max load", "max/mean",
                   "gini", "top share", "confined"});
  for (int levels = 1; levels <= 5; ++levels) {
    Rng rng(seed + static_cast<std::uint64_t>(levels));
    PopulationSpec spec;
    spec.node_count = n;
    spec.hierarchy.levels = levels;
    spec.hierarchy.fanout = 10;
    const auto net = make_population(spec, rng);
    const auto links = build_crescendo(net);
    const RingRouter router(net, links);

    // Identical workload for every structure: keys are absolute ID-space
    // points, so each structure resolves the same traffic.
    const Rng wrng(seed);
    const auto queries =
        workload == "uniform"
            ? uniform_workload(net, lookups, wrng)
            : zipf_workload(net, lookups, wrng, theta);

    telemetry::LoadAccountant load(net.domains(), net.ids());
    QueryEngine engine(net);
    engine.set_load(&load);
    const QueryStats stats = engine.run(queries, router);

    double top_share = 0;
    for (const auto& dl : load.domain_loads()) {
      top_share = std::max(top_share, dl.share);
    }
    table.add_row({levels == 1 ? "1 (Chord)" : std::to_string(levels),
                   TextTable::num(stats.hops.mean(), 2),
                   TextTable::num(load.mean_load(), 1),
                   TextTable::num(static_cast<double>(load.max_load()), 0),
                   TextTable::num(load.max_mean_ratio(), 2),
                   TextTable::num(load.gini(), 3),
                   TextTable::num(top_share, 3),
                   TextTable::num(load.confinement_ratio(), 3)});

    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("levels", telemetry::JsonValue(static_cast<std::int64_t>(levels)));
    row.set("mean_hops", telemetry::JsonValue(stats.hops.mean()));
    row.set("failures", telemetry::JsonValue(stats.failures));
    row.set("load", load.to_json());
    run.report().add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(expected: max/mean and gini stay at flat Chord's level "
               "across 1-5 levels, and 'confined' — the fraction of "
               "intra-domain lookups that never leave their domain — is "
               "exactly 1.000 for every hierarchical row)\n";

  // Section B: degradation under crashes as a time series (levels 3).
  {
    Rng rng(seed + 3);
    PopulationSpec spec;
    spec.node_count = n;
    spec.hierarchy.levels = 3;
    spec.hierarchy.fanout = 10;
    const auto net = make_population(spec, rng);
    const auto links = build_crescendo(net);
    // No inbox bound: the curve measures crashes, not congestion drops.
    MessageSimConfig config;
    config.inbox_capacity = std::numeric_limits<int>::max();
    MessageSimulator sim(net, links, {}, {}, config);
    telemetry::TimeSeriesRecorder series(25.0);

    const double submit_gap_ms = 0.02;
    const double span_ms = submit_gap_ms * static_cast<double>(lookups);
    const auto crash_at = static_cast<std::uint64_t>(span_ms / 2);
    FaultPlan plan =
        FaultPlan::fail_fraction(net.size(), crash_fraction, seed ^ 0xc4a54);
    FaultPlan timed;  // same kill set, scheduled mid-run
    for (const FaultEvent& fe : plan.events()) {
      timed.crash(fe.node, crash_at);
    }
    SimSinks sinks;
    sinks.timeseries = &series;
    sinks.fault_plan = &timed;
    sim.attach(sinks);

    Rng qrng(seed);
    for (std::uint64_t t = 0; t < lookups; ++t) {
      const auto from = static_cast<std::uint32_t>(qrng.uniform(net.size()));
      sim.submit(from, net.space().wrap(qrng()),
                 submit_gap_ms * static_cast<double>(t));
    }
    sim.run();

    std::uint64_t failed = 0;
    for (const auto& lookup : sim.lookups()) {
      if (!lookup.ok) ++failed;
    }
    std::cout << "\ncrash curve: " << timed.events().size() << " nodes ("
              << crash_fraction * 100 << "%) crash at t=" << crash_at
              << "ms; " << failed << "/" << lookups
              << " lookups fail; time series in the JSON report\n";

    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("phase", telemetry::JsonValue("crash_curve"));
    row.set("levels", telemetry::JsonValue(std::int64_t{3}));
    row.set("crash_at_ms",
            telemetry::JsonValue(static_cast<std::uint64_t>(crash_at)));
    row.set("crashed", telemetry::JsonValue(static_cast<std::uint64_t>(
                           timed.events().size())));
    row.set("failed", telemetry::JsonValue(failed));
    row.set("timeseries", series.to_json());
    run.report().add_row(std::move(row));
  }
  return run.finish();
}
