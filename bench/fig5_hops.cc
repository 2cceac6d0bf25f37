// Figure 5: average number of routing hops vs. network size, levels 1-5.
//
// Expected shape (paper): ~0.5*log2(n) + c; a small constant increase
// (at most ~0.7) as the number of levels grows, mirroring the slight drop
// in links.
//
// Lookups run through the batch QueryEngine: the (from, key) workload is
// pre-generated from forked RNG streams and fanned across --threads, with
// results byte-identical at every thread count. With --json, each
// (nodes, levels) cell additionally reports the per-hierarchy-level hop
// breakdown tallied by the engine: hops at level l stay inside a common
// level-l domain (deep = local). The breakdown always sums to the cell's
// total hop count.
//
// --crash-rate=f additionally fail-stops that fraction of nodes
// (FaultPlan::fail_fraction) and routes through the failure-aware ring
// core; cells then carry success rates instead of asserting zero
// failures. The flag is recorded in params (and changes the report) only
// when passed — a flagless run's output is byte-identical to the
// pre-resilience figure.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "fig5_hops");
  const std::uint64_t min_n = run.u64("min-nodes", 1024, 1);
  const std::uint64_t max_n = run.u64("max-nodes", 65536);
  const std::uint64_t trials = run.u64("trials", 4000, 1);
  const bool faulty = run.present("crash-rate");
  const double crash_rate = faulty ? run.fraction("crash-rate", 0.0) : 0.0;
  run.header("Figure 5: average routing hops",
             "avg #hops vs n, levels 1-5, fanout 10, Zipf(1.25)");

  TextTable table({"nodes", "levels=1 (Chord)", "levels=2", "levels=3",
                   "levels=4", "levels=5"});
  for (std::uint64_t n = min_n; n <= max_n; n *= 2) {
    std::vector<std::string> row = {TextTable::num(n)};
    for (int levels = 1; levels <= 5; ++levels) {
      Rng rng(run.seed + static_cast<std::uint64_t>(levels));
      PopulationSpec spec;
      spec.node_count = n;
      spec.hierarchy.levels = levels;
      spec.hierarchy.fanout = 10;
      const auto net = make_population(spec, rng);
      const auto links = build_crescendo(net);
      QueryEngine engine(net);
      engine.set_level_tracking(run.json_enabled());
      const auto queries = uniform_workload(net, trials, rng);
      const RingRouter router(net, links);
      QueryStats stats;
      ResilientStats rstats;
      if (faulty) {
        const FaultPlan plan =
            FaultPlan::fail_fraction(net.size(), crash_rate, run.seed);
        rstats = engine.run_resilient(queries, router, plan);
        stats = rstats.base;
      } else {
        stats = engine.run(queries, router);
        if (stats.failures != 0) {
          std::cerr << "routing failure (broken structure)\n";
          return 1;
        }
      }
      row.push_back(TextTable::num(stats.hops.mean(), 2));
      if (run.json_enabled()) {
        telemetry::JsonValue cell = telemetry::JsonValue::object();
        cell.set("nodes", telemetry::JsonValue(n));
        cell.set("levels", telemetry::JsonValue(levels));
        cell.set("mean_hops", telemetry::JsonValue(stats.hops.mean()));
        cell.set("total_hops", telemetry::JsonValue(stats.total_hops));
        telemetry::JsonValue by_level = telemetry::JsonValue::array();
        for (const std::uint64_t c : stats.hops_by_level) {
          by_level.push_back(telemetry::JsonValue(c));
        }
        cell.set("hops_by_level", std::move(by_level));
        if (faulty) {
          cell.set("success", telemetry::JsonValue(rstats.success_rate()));
          cell.set("retries", telemetry::JsonValue(rstats.retries));
          cell.set("fallback_hops",
                   telemetry::JsonValue(rstats.fallback_hops));
          cell.set("skipped_dead_source",
                   telemetry::JsonValue(rstats.skipped_dead_source));
        }
        run.report().add_row(std::move(cell));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: ~0.5*log2(n)+c; deeper hierarchies cost at most "
               "~0.7 extra hops)\n";
  return run.finish();
}
