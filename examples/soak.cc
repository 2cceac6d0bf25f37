// Soak test: a Crescendo deployment under concurrent load and failures.
// Drives thousands of simultaneous lookups through the discrete-event
// simulator (per-node queueing), then kills a third of the network and
// shows leaf-set fallback keeping lookups alive.
//
// Flags: --nodes=4096 --lookups=20000 --seed=42
//        --journal=<path> (JSONL: lookup_failure events, audit snapshot,
//                          and windowed load_snapshot events)
//        --json=<path>    (BenchReport with the final audit, the load
//                          phase's time series, and a load report)
//        --trace=<path>   (Chrome trace-event JSON of the construction
//                          phases; a FlameGraph/speedscope collapsed-stack
//                          profile lands next to it at <path>.folded)
// The run always ends with a resource report: per-subsystem attributed
// bytes against measured RSS (docs/TELEMETRY.md section 10). It fails
// (exit 1) if lookups fail under load, post-failure routing drops below
// 99%, or the structural audit reports any violation.
#include <iostream>
#include <limits>
#include <memory>

#include "audit/auditor.h"
#include "overlay/family_registry.h"
#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/rng.h"
#include "common/table.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "telemetry/flame_export.h"
#include "telemetry/journal.h"
#include "telemetry/load_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_export.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "soak");
  // Lookups need a node to start from, and the latency percentiles one
  // lookup.
  const std::uint64_t node_count = run.u64("nodes", 4096, 1);
  const std::uint64_t lookup_count = run.u64("lookups", 20000, 1);
  const std::string journal_path = run.str("journal", "");
  const std::string trace_path = run.str("trace", "");
  run.check_flags();

  // The resource observatory rides along on every soak: subsystem byte
  // ledger + construction-phase spans (printed at the end; exported when
  // --trace is given).
  telemetry::MemoryAccountant accountant;
  telemetry::install_mem_accountant(&accountant);
  telemetry::SpanLog spans;
  telemetry::install_span_log(&spans);

  Rng rng(run.seed * 10101 + 424242);
  PopulationSpec spec;
  spec.node_count = node_count;
  spec.hierarchy.levels = 4;
  spec.hierarchy.fanout = 8;
  const OverlayNetwork net = make_population(spec, rng);
  const LinkTable links = build_crescendo(net);

  std::unique_ptr<telemetry::EventJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<telemetry::EventJournal>(journal_path);
  }

  // Structural audit before applying load: a drifted structure would make
  // every load number below meaningless.
  const audit::AuditReport audit_report =
      registry::audit_family("crescendo", net, links);
  std::cout << "structural audit: " << audit_report.summary() << "\n\n";
  if (journal) {
    journal->audit_snapshot(net.size(), audit_report.total_checks(),
                            audit_report.violations.size());
  }
  {
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("size",
            telemetry::JsonValue(static_cast<std::uint64_t>(net.size())));
    row.set("audit", audit_report.to_json());
    run.report().add_row(std::move(row));
  }

  // Phase 1: concurrent lookups, Poisson-ish arrivals, through the message
  // simulator at α=1 with no inbox bound. Failed lookups land in the
  // journal as lookup_failure events.
  MessageSimConfig config;
  config.inbox_capacity = std::numeric_limits<int>::max();
  MessageSimulator sim(net, links, {}, {}, config);
  telemetry::TimeSeriesRecorder series(/*window_ms=*/50.0);
  SimSinks sinks;
  sinks.journal = journal.get();
  sinks.timeseries = &series;
  if (journal) {
    sinks.snapshot_top_k = 5;
    sinks.snapshot_window_ms = 200.0;
  }
  sim.attach(sinks);
  for (std::uint64_t t = 0; t < lookup_count; ++t) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    sim.submit(from, net.space().wrap(rng()),
               0.05 * static_cast<double>(t));
  }
  sim.run();
  Percentiles latency;
  Percentiles load;
  int failed = 0;
  for (const auto& lookup : sim.lookups()) {
    latency.add(lookup.latency_ms());
    failed += !lookup.ok;
  }
  for (const auto l : sim.node_load()) load.add(static_cast<double>(l));
  std::cout << "phase 1: " << lookup_count << " concurrent lookups over "
            << net.size() << " nodes\n";
  std::cout << "  failures: " << failed << "\n";
  std::cout << "  lookup latency ms  p50 " << TextTable::num(latency.quantile(0.5), 2)
            << "  p99 " << TextTable::num(latency.quantile(0.99), 2) << "\n";
  const double gini = telemetry::gini_coefficient(sim.node_load());
  const auto hottest = telemetry::top_loaded_nodes(sim.node_load(), 3);
  std::cout << "  per-node load      p50 " << load.quantile(0.5) << "  max "
            << load.quantile(1.0) << "  (max/mean "
            << TextTable::num(load.quantile(1.0) / load.mean(), 2)
            << ", gini " << TextTable::num(gini, 3)
            << " - no hot spots)\n";
  std::cout << "  hottest nodes     ";
  for (const auto& [node, messages] : hottest) {
    std::cout << "  #" << node << " (" << messages << " msgs)";
  }
  std::cout << "\n  time series        " << series.windows().size()
            << " windows of 50ms in the JSON report\n\n";

  // Phase 2: kill 33% of nodes; resilient routing with leaf sets.
  FailureSet failures(net.size());
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    if (rng.uniform(3) == 0) failures.kill(i);
  }
  const RingRouter router(net, links, /*leaf_set=*/8);
  int ok = 0;
  // Lookups start at live nodes only, so there are none once every node
  // is dead.
  const int trials = failures.dead_count() < net.size() ? 5000 : 0;
  Summary hops;
  for (int t = 0; t < trials;) {
    const auto from = static_cast<std::uint32_t>(rng.uniform(net.size()));
    if (failures.dead(from)) continue;
    ++t;
    const Route r = router.route(from, net.space().wrap(rng()), failures);
    ok += r.ok;
    if (r.ok) hops.add(r.hops());
  }
  std::cout << "phase 2: " << failures.dead_count() << "/" << net.size()
            << " nodes failed simultaneously\n";
  if (trials == 0) {
    std::cout << "  no live node left to look up from\n";
  } else {
    std::cout << "  lookups still reaching the live responsible node: " << ok
              << "/" << trials << " ("
              << TextTable::num(100.0 * ok / trials, 2) << "%)\n";
    std::cout << "  mean hops " << TextTable::num(hops.mean(), 2)
              << " (leaf sets route around the dead)\n";
  }

  // Resource report: which subsystem owns the bytes, against measured RSS.
  std::cout << "\nresource report:\n";
  for (const auto& [tag, stats] : accountant.tags()) {
    std::cout << "  " << tag << ": "
              << TextTable::num(static_cast<double>(stats.current) / 1024.0,
                                0)
              << " KB now, "
              << TextTable::num(static_cast<double>(stats.peak) / 1024.0, 0)
              << " KB peak\n";
  }
  std::cout << "  attributed "
            << TextTable::num(static_cast<double>(accountant.current_bytes())
                                  / (1024.0 * 1024.0), 1)
            << " MB of " << TextTable::num(telemetry::current_rss_mb(), 1)
            << " MB resident (" << TextTable::num(telemetry::peak_rss_mb(), 1)
            << " MB peak)\n";

  if (!trace_path.empty()) {
    telemetry::TraceExporter exporter;
    exporter.set_process_name(telemetry::TraceExporter::kBuildPid,
                              "construction phases");
    exporter.add_span_log(spans);
    exporter.write_file(trace_path);
    const std::string folded = trace_path + ".folded";
    const std::size_t stacks =
        telemetry::write_collapsed_stacks(spans, folded);
    std::cout << "trace: " << exporter.event_count() << " events -> "
              << trace_path << "; " << stacks << " collapsed stacks -> "
              << folded << " (speedscope / flamegraph.pl)\n";
  }

  if (journal) journal->flush();
  {
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("phase1_failures", telemetry::JsonValue(
        static_cast<std::int64_t>(failed)));
    row.set("phase2_ok", telemetry::JsonValue(
        static_cast<std::int64_t>(ok)));
    row.set("phase2_trials", telemetry::JsonValue(
        static_cast<std::int64_t>(trials)));
    row.set("load_gini", telemetry::JsonValue(gini));
    {
      telemetry::JsonValue hot = telemetry::JsonValue::array();
      for (const auto& [node, messages] : hottest) {
        telemetry::JsonValue entry = telemetry::JsonValue::object();
        entry.set("node", telemetry::JsonValue(
            static_cast<std::uint64_t>(node)));
        entry.set("load", telemetry::JsonValue(messages));
        hot.push_back(std::move(entry));
      }
      row.set("top_nodes", std::move(hot));
    }
    row.set("timeseries", series.to_json());
    run.report().add_row(std::move(row));
  }
  const int rc = run.finish();
  if (rc != 0) return rc;
  return failed == 0 && ok >= trials * 99 / 100 && audit_report.ok() ? 0
                                                                     : 1;
}
