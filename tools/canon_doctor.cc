// canon_doctor: build (or ingest) an overlay, audit its structure, and —
// when asked — measure how it routes under injected failures.
//
// Three modes, selected by flags:
//
//   static  (default)      Build --family over a fresh population (every
//                          family from the registry with --all) and run
//                          the family's full audit battery. With
//                          --crash-rate (and optionally --drop-rate) each
//                          audited family additionally routes --trials
//                          lookups through its failure-aware router over a
//                          FaultPlan killing that fraction of nodes, plus
//                          a liveness audit of the survivors. With
//                          --load-report each family also routes --trials
//                          Zipf(1.25) hot-key lookups with a LoadAccountant
//                          attached (load spread, hotspots, per-domain
//                          shares, the §5 confinement ratio). With
//                          --trace-out=<path> the run writes a Chrome
//                          trace-event JSON (construction-phase spans plus
//                          a sampled per-hop lookup trace of the first
//                          family) loadable in chrome://tracing or
//                          ui.perfetto.dev. With --resource-report the run
//                          installs the memory accountant and prints the
//                          per-subsystem byte ledger (docs/TELEMETRY.md
//                          §10), measured RSS, and a self-time-per-phase
//                          wall-clock table; the ledger also lands under
//                          metrics.memory in the JSON report. With
//                          --flame-out=<path> construction-phase spans are
//                          written as FlameGraph/speedscope collapsed
//                          stacks. Exit 0 iff no structural violations and
//                          every measured success rate reaches
//                          --min-success.
//   churn   (--churn=N)    Run N join/leave operations through
//                          DynamicCrescendo, journaling every event to
//                          --journal-out (JSONL) and appending an
//                          audit_snapshot every --snapshot-every ops plus
//                          one final snapshot. With --crash-rate the
//                          post-churn structure also runs the fault phase
//                          (its crash events land in the same journal).
//                          Exit 0 iff the final audit is clean and the
//                          fault phase (if any) reaches --min-success.
//   replay  (--replay=F)   Re-read a churn journal, reconstruct the
//                          surviving member set from its join/leave
//                          events (crash/revive fault events are injected
//                          faults, not membership changes, and are
//                          ignored), rebuild Crescendo from scratch and
//                          re-audit. Exit 0 iff the fresh audit is clean
//                          AND its verdict matches the journal's final
//                          audit_snapshot (the incremental structure and
//                          the from-scratch one must agree).
//
// Common flags: --nodes=1024 --levels=3 --fanout=10 --seed=42 --json=F.
// Fault flags: --crash-rate=0.3 --drop-rate=0.05 --trials=2000
// --min-success=0.5. Valid --family values come from the family registry
// (overlay/family_registry.h); an unknown name prints the full list.
// Replay assumes the default 32-bit ID space (the journal records IDs, not
// the space). See docs/TELEMETRY.md for the journal schema and
// docs/RESILIENCE.md for the fault model.
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "telemetry/flame_export.h"
#include "telemetry/journal.h"
#include "telemetry/load_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/scoped_timer.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace {

using namespace canon;

/// The leaf-set reach assumed by the liveness audit — the resilient ring
/// router's default fallback depth.
constexpr int kLivenessLeafSet = 4;

struct FaultOptions {
  double crash_rate = 0.0;  ///< fail-stop fraction in [0, 1)
  double drop_rate = 0.0;   ///< per-forwarding message-drop probability
  std::uint64_t trials = 2000;
  double min_success = 0.0;  ///< exit-gating success-rate floor

  bool active() const { return crash_rate > 0.0 || drop_rate > 0.0; }
};

struct DoctorOptions {
  std::size_t nodes = 1024;
  int levels = 3;
  int fanout = 10;
  std::uint64_t seed = 42;
  FaultOptions faults;
  std::string trace_out;     ///< Chrome/Perfetto trace path ("" = off)
  bool load_report = false;  ///< per-family load observatory tables
  bool resource_report = false;  ///< per-subsystem memory ledger + phases
  std::string flame_out;     ///< collapsed-stack profile path ("" = off)
};

void print_report(std::string_view name, const audit::AuditReport& report) {
  std::printf("  %-18s %s\n", std::string(name).c_str(),
              report.summary().c_str());
  constexpr std::size_t kMaxShown = 5;
  for (std::size_t i = 0;
       i < report.violations.size() && i < kMaxShown; ++i) {
    const audit::Violation& v = report.violations[i];
    std::printf("      [%s] node=%s level=%d: %s\n", v.check.c_str(),
                v.node == audit::kNoNode ? "-" : std::to_string(v.node).c_str(),
                v.level, v.detail.c_str());
  }
  if (report.violations.size() > kMaxShown) {
    std::printf("      ... and %zu more\n",
                report.violations.size() - kMaxShown);
  }
}

telemetry::JsonValue family_row(std::string_view name,
                                const audit::AuditReport& report) {
  telemetry::JsonValue row = telemetry::JsonValue::object();
  row.set("family", telemetry::JsonValue(name));
  row.set("audit", report.to_json());
  return row;
}

OverlayNetwork make_net(const DoctorOptions& opt) {
  Rng rng(opt.seed);
  PopulationSpec spec;
  spec.node_count = opt.nodes;
  spec.hierarchy.levels = opt.levels;
  spec.hierarchy.fanout = opt.fanout;
  return make_population(spec, rng);
}

/// Routes `trials` uniform lookups through `name`'s failure-aware router
/// under the doctor's FaultPlan, audits survivor liveness, prints one
/// summary line, and appends a "resilience" object to `row`. Crash events
/// go to `journal` when given. Returns whether the success rate clears
/// --min-success.
bool run_fault_phase(std::string_view name, const OverlayNetwork& net,
                     const LinkTable& links, const DoctorOptions& opt,
                     telemetry::EventJournal* journal,
                     telemetry::JsonValue& row) {
  const FaultOptions& f = opt.faults;
  FaultPlan plan =
      FaultPlan::fail_fraction(net.size(), f.crash_rate, opt.seed);
  if (f.drop_rate > 0.0) plan.set_drop(f.drop_rate);
  const FailureSet dead = plan.materialize(net, journal);

  const registry::FamilyRouter router =
      registry::family(name).make_router(net, links);
  const QueryEngine engine(net);
  const auto queries =
      uniform_workload(net, f.trials, Rng(opt.seed ^ 0x7e5171dcULL));
  const ResilientStats stats =
      router.run_resilient_with(engine, queries, dead, plan);

  audit::AuditReport live;
  const audit::StructureAuditor auditor(net, links);
  auditor.check_liveness(live, dead, kLivenessLeafSet);

  std::printf(
      "      faults: %llu/%zu crashed, drop %.2f -> success %.3f "
      "(%llu/%llu ok, %llu dead sources), retries %llu, fallback hops "
      "%llu; liveness %s\n",
      static_cast<unsigned long long>(dead.dead_count()), net.size(),
      f.drop_rate, stats.success_rate(),
      static_cast<unsigned long long>(stats.base.ok()),
      static_cast<unsigned long long>(stats.attempted()),
      static_cast<unsigned long long>(stats.skipped_dead_source),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.fallback_hops),
      live.summary().c_str());

  telemetry::JsonValue res = telemetry::JsonValue::object();
  res.set("crash_rate", telemetry::JsonValue(f.crash_rate));
  res.set("drop_rate", telemetry::JsonValue(f.drop_rate));
  res.set("crashed", telemetry::JsonValue(
                         static_cast<std::uint64_t>(dead.dead_count())));
  res.set("trials", telemetry::JsonValue(f.trials));
  res.set("attempted", telemetry::JsonValue(stats.attempted()));
  res.set("ok", telemetry::JsonValue(stats.base.ok()));
  res.set("success_rate", telemetry::JsonValue(stats.success_rate()));
  res.set("availability", telemetry::JsonValue(stats.availability()));
  res.set("retries", telemetry::JsonValue(stats.retries));
  res.set("fallback_hops", telemetry::JsonValue(stats.fallback_hops));
  res.set("skipped_dead_source",
          telemetry::JsonValue(stats.skipped_dead_source));
  res.set("mean_hops", telemetry::JsonValue(stats.base.hops.mean()));
  // The liveness audit is diagnostic, not exit-gating: at high kill
  // fractions isolated survivors are expected, and the success rate
  // already prices them in.
  res.set("liveness", live.to_json());
  row.set("resilience", std::move(res));

  return stats.success_rate() >= f.min_success;
}

/// Routes `trials` Zipf(1.25) hot-key lookups through `router` with a
/// LoadAccountant attached: per-node load spread, hotspot attribution and
/// the §5 domain-confinement ratio, printed and appended to `row` as a
/// "load" object.
void run_load_report(const OverlayNetwork& net,
                     const registry::FamilyRouter& router,
                     const DoctorOptions& opt, telemetry::JsonValue& row) {
  telemetry::LoadAccountant load(net.domains(), net.ids());
  QueryEngine engine(net);
  engine.set_load(&load);
  const auto queries = zipf_workload(net, opt.faults.trials,
                                     Rng(opt.seed ^ 0x10adULL));
  router.run(engine, queries);

  const auto hot_nodes = load.top_nodes(1);
  const auto hot_keys = load.top_keys(1);
  std::printf(
      "      load: %llu zipf lookups -> gini %.3f, max/mean %.2f, "
      "confinement %.3f",
      static_cast<unsigned long long>(load.queries()), load.gini(),
      load.max_mean_ratio(), load.confinement_ratio());
  if (!hot_nodes.empty()) {
    std::printf(", hottest node %u (%llu msgs)", hot_nodes[0].node,
                static_cast<unsigned long long>(hot_nodes[0].total));
  }
  if (!hot_keys.empty()) {
    std::printf(", hottest key %llu lookups",
                static_cast<unsigned long long>(hot_keys[0].lookups));
  }
  std::printf("\n");
  row.set("load", load.to_json());
}

int run_static(bench::BenchRun& run, const DoctorOptions& opt,
               const std::string& family, bool all,
               const std::string& journal_path) {
  const OverlayNetwork net = make_net(opt);
  std::vector<std::string_view> families;
  if (all) {
    const auto names = registry::family_names();
    families.assign(names.begin(), names.end());
  } else {
    families.push_back(family);
  }

  std::unique_ptr<telemetry::EventJournal> journal;
  if (!journal_path.empty() && opt.faults.active()) {
    journal = std::make_unique<telemetry::EventJournal>(journal_path);
  }

  std::size_t total_violations = 0;
  bool success_ok = true;
  telemetry::RecordingTraceSink trace_sink;  // first family's sample
  for (const std::string_view f : families) {
    const LinkTable links = registry::build_family(net, f, opt.seed);
    const audit::AuditReport report = registry::audit_family(f, net, links);
    total_violations += report.violations.size();
    print_report(f, report);
    telemetry::JsonValue row = family_row(f, report);
    if (opt.faults.active()) {
      success_ok &=
          run_fault_phase(f, net, links, opt, journal.get(), row);
    }
    if (opt.load_report) {
      run_load_report(net, registry::family(f).make_router(net, links), opt,
                      row);
    }
    if (!opt.trace_out.empty() && trace_sink.lookups().empty()) {
      // Sample a small traced batch through the first family (the sink
      // forces the engine serial, so keep it off the main measurements).
      QueryEngine engine(net);
      engine.set_trace(&trace_sink);
      const std::uint64_t sample = std::min<std::uint64_t>(opt.faults.trials,
                                                           64);
      const auto queries =
          uniform_workload(net, sample, Rng(opt.seed ^ 0x7eaceULL));
      registry::family(f).make_router(net, links).run(engine, queries);
    }
    run.report().add_row(std::move(row));
  }
  if (journal) journal->flush();
  if (opt.resource_report) {
    if (const telemetry::MemoryAccountant* acct = telemetry::mem_accountant()) {
      std::printf("\nresource report (per-subsystem bytes):\n");
      std::printf("  %-24s %14s %14s %8s\n", "tag", "current", "peak",
                  "charges");
      for (const auto& [tag, stats] : acct->tags()) {
        std::printf("  %-24s %14llu %14llu %8llu\n", tag.c_str(),
                    static_cast<unsigned long long>(stats.current),
                    static_cast<unsigned long long>(stats.peak),
                    static_cast<unsigned long long>(stats.charges));
      }
      std::printf("  %-24s %14llu %14llu\n", "total",
                  static_cast<unsigned long long>(acct->current_bytes()),
                  static_cast<unsigned long long>(acct->peak_bytes()));
      std::printf("  measured RSS: %.1f MB current, %.1f MB peak "
                  "(attributed %.1f MB)\n",
                  telemetry::current_rss_mb(), telemetry::peak_rss_mb(),
                  static_cast<double>(acct->current_bytes()) /
                      (1024.0 * 1024.0));
      telemetry::JsonValue mem = acct->to_json();
      telemetry::JsonValue measured = telemetry::JsonValue::object();
      measured.set("current_mb",
                   telemetry::JsonValue(telemetry::current_rss_mb()));
      measured.set("peak_mb", telemetry::JsonValue(telemetry::peak_rss_mb()));
      mem.set("measured", std::move(measured));
      run.report().set_metric("memory", std::move(mem));
    }
    if (const telemetry::SpanLog* spans = telemetry::span_log()) {
      const auto tree = telemetry::build_flame_tree(spans->snapshot());
      const telemetry::JsonValue phases = telemetry::flame_phase_table(tree);
      std::printf("\nwall-clock by phase (self time):\n");
      std::printf("  %-32s %6s %12s %12s\n", "phase", "count", "total ms",
                  "self ms");
      for (const telemetry::JsonValue& p : phases.items()) {
        std::printf("  %-32s %6lld %12.2f %12.2f\n",
                    p.get("name")->as_string().c_str(),
                    static_cast<long long>(p.get("count")->as_int()),
                    p.get("total_us")->as_double() / 1e3,
                    p.get("self_us")->as_double() / 1e3);
      }
    }
  }
  if (!opt.flame_out.empty()) {
    if (const telemetry::SpanLog* spans = telemetry::span_log()) {
      const std::size_t lines =
          telemetry::write_collapsed_stacks(*spans, opt.flame_out);
      std::printf("\nflame: %zu collapsed stacks -> %s (load in speedscope "
                  "or flamegraph.pl)\n",
                  lines, opt.flame_out.c_str());
    }
  }
  if (!opt.trace_out.empty()) {
    telemetry::TraceExporter exporter;
    exporter.set_process_name(telemetry::TraceExporter::kBuildPid,
                              "construction phases");
    exporter.set_process_name(telemetry::TraceExporter::kLookupPid,
                              "sampled lookups (" +
                                  std::string(families.front()) + ")");
    if (const telemetry::SpanLog* spans = telemetry::span_log()) {
      exporter.add_span_log(*spans);
    }
    exporter.add_lookup_traces(trace_sink);
    exporter.write_file(opt.trace_out);
    std::printf("\ntrace: %zu events -> %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                exporter.event_count(), opt.trace_out.c_str());
  }
  std::printf("\n%s\n", total_violations == 0
                            ? "all audited structures are healthy"
                            : "structural violations detected");
  if (opt.faults.active() && !success_ok) {
    std::printf("fault phase: success rate below --min-success=%.3f\n",
                opt.faults.min_success);
  }
  const int rc = run.finish();
  if (rc != 0) return rc;
  return (total_violations == 0 && success_ok) ? 0 : 1;
}

/// Applies `ops` random join/leave operations; journals when `journal` is
/// non-null and snapshots (journal + report rows) every `snapshot_every`
/// ops plus once at the end. Returns the final report.
audit::AuditReport run_churn_ops(bench::BenchRun& run, DynamicCrescendo& dyn,
                                 const DoctorOptions& opt, std::uint64_t ops,
                                 std::uint64_t snapshot_every,
                                 telemetry::EventJournal* journal) {
  Rng rng(opt.seed + 0x9e3779b97f4a7c15ULL);
  HierarchySpec hier;
  hier.levels = opt.levels;
  hier.fanout = opt.fanout;
  const IdSpace space = dyn.network().space();
  const std::size_t floor_size = opt.nodes / 2 + 2;

  const auto snapshot = [&](std::uint64_t op) {
    const LinkTable& links = dyn.link_table();
    const audit::AuditReport report =
        registry::audit_family("crescendo", dyn.network(), links);
    if (journal) {
      journal->audit_snapshot(dyn.size(), report.total_checks(),
                              report.violations.size());
    }
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("op", telemetry::JsonValue(op));
    row.set("size",
            telemetry::JsonValue(static_cast<std::uint64_t>(dyn.size())));
    row.set("checks", telemetry::JsonValue(report.total_checks()));
    row.set("violations",
            telemetry::JsonValue(
                static_cast<std::uint64_t>(report.violations.size())));
    run.report().add_row(std::move(row));
    return report;
  };

  for (std::uint64_t op = 1; op <= ops; ++op) {
    const bool join = dyn.size() <= floor_size ||
                      (dyn.size() < 2 * opt.nodes && rng.uniform(2) == 0);
    if (join) {
      OverlayNode node;
      do {
        node.id = rng() & space.mask();
      } while (dyn.contains(node.id));
      node.domain = generate_hierarchy(1, hier, rng)[0];
      dyn.join(node);
    } else {
      const auto victim = static_cast<NodeIndex>(rng.uniform(dyn.size()));
      dyn.leave(dyn.network().id(victim));
    }
    if (snapshot_every > 0 && op % snapshot_every == 0 && op != ops) {
      snapshot(op);
    }
  }
  audit::AuditReport final_report = snapshot(ops);
  if (journal) journal->flush();
  return final_report;
}

int run_churn(bench::BenchRun& run, const DoctorOptions& opt,
              std::uint64_t ops, std::uint64_t snapshot_every,
              const std::string& journal_path) {
  Rng rng(opt.seed);
  PopulationSpec spec;
  spec.node_count = opt.nodes;
  spec.hierarchy.levels = opt.levels;
  spec.hierarchy.fanout = opt.fanout;
  const IdSpace space(spec.id_bits);
  const std::vector<NodeId> ids =
      sample_unique_ids(spec.node_count, space, rng);
  const std::vector<DomainPath> paths =
      generate_hierarchy(spec.node_count, spec.hierarchy, rng);
  std::vector<OverlayNode> initial(spec.node_count);
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    initial[i].id = ids[i];
    initial[i].domain = paths[i];
  }
  DynamicCrescendo dyn(space, std::move(initial));

  std::unique_ptr<telemetry::EventJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<telemetry::EventJournal>(journal_path);
    // Journal the bootstrap population as join events (lookup_hops 0:
    // these nodes never routed an insertion lookup) so a replay can
    // reconstruct the full member set, not just the churn-time joiners.
    std::size_t bootstrapped = 0;
    for (std::size_t i = 0; i < spec.node_count; ++i) {
      journal->join(ids[i], paths[i].branches(), 0, ++bootstrapped);
    }
  }
  dyn.set_journal(journal.get());

  const audit::AuditReport report =
      run_churn_ops(run, dyn, opt, ops, snapshot_every, journal.get());
  std::printf("after %llu churn ops (final size %zu):\n",
              static_cast<unsigned long long>(ops), dyn.size());
  print_report("crescendo", report);

  // The post-churn fault phase: does the *churned* structure still route
  // around injected failures?
  bool success_ok = true;
  if (opt.faults.active()) {
    const LinkTable& links = dyn.link_table();
    telemetry::JsonValue row = family_row("crescendo", report);
    success_ok = run_fault_phase("crescendo", dyn.network(), links, opt,
                                 journal.get(), row);
    run.report().add_row(std::move(row));
    if (journal) journal->flush();
  }

  if (journal) {
    std::printf("journal: %s (%llu events)\n", journal_path.c_str(),
                static_cast<unsigned long long>(journal->events()));
  }
  const int rc = run.finish();
  if (rc != 0) return rc;
  return (report.ok() && success_ok) ? 0 : 1;
}

int run_replay(bench::BenchRun& run, const std::string& journal_path) {
  const std::vector<telemetry::JsonValue> events =
      telemetry::read_journal_file(journal_path);

  // Reconstruct the surviving member set; remember the last snapshot's
  // verdict for the incremental-vs-from-scratch comparison. Fault events
  // (crash/revive) are injected failures, not membership changes — they
  // fall through the type dispatch untouched.
  std::map<NodeId, DomainPath> members;
  bool saw_snapshot = false;
  std::uint64_t snapshot_violations = 0;
  for (const telemetry::JsonValue& ev : events) {
    const std::string& type = ev.get("type")->as_string();
    if (type == "join") {
      std::vector<std::uint16_t> branches;
      for (const telemetry::JsonValue& b : ev.get("path")->items()) {
        branches.push_back(static_cast<std::uint16_t>(b.as_int()));
      }
      members[static_cast<NodeId>(ev.get("id")->as_int())] =
          DomainPath(std::move(branches));
    } else if (type == "leave") {
      members.erase(static_cast<NodeId>(ev.get("id")->as_int()));
    } else if (type == "audit_snapshot") {
      saw_snapshot = true;
      snapshot_violations =
          static_cast<std::uint64_t>(ev.get("violations")->as_int());
    }
  }

  std::vector<OverlayNode> nodes;
  nodes.reserve(members.size());
  for (const auto& [id, path] : members) {
    nodes.push_back(OverlayNode{id, path, -1});
  }
  const OverlayNetwork net(IdSpace(), std::move(nodes));
  const LinkTable links = build_crescendo(net);
  const audit::AuditReport report =
      registry::audit_family("crescendo", net, links);

  std::printf("replayed %zu events -> %zu surviving members\n", events.size(),
              members.size());
  print_report("crescendo", report);
  bool verdicts_agree = true;
  if (saw_snapshot) {
    verdicts_agree = (snapshot_violations == 0) == report.ok();
    std::printf("journal's final snapshot: %llu violations -> verdicts %s\n",
                static_cast<unsigned long long>(snapshot_violations),
                verdicts_agree ? "AGREE" : "DISAGREE");
  }
  telemetry::JsonValue row = family_row("crescendo", report);
  row.set("replayed_events",
          telemetry::JsonValue(static_cast<std::uint64_t>(events.size())));
  row.set("verdicts_agree", telemetry::JsonValue(verdicts_agree));
  run.report().add_row(std::move(row));
  const int rc = run.finish();
  return rc != 0 ? rc : ((report.ok() && verdicts_agree) ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::BenchRun run(argc, argv, "canon_doctor");
    const std::string family = run.str("family", "crescendo");
    const bool all = run.boolean("all", false);
    DoctorOptions opt;
    opt.nodes = run.u64("nodes", 1024);
    opt.levels = static_cast<int>(run.u64("levels", 3));
    opt.fanout = static_cast<int>(run.u64("fanout", 10));
    opt.seed = run.seed;
    const std::uint64_t churn = run.u64("churn", 0);
    const std::uint64_t snapshot_every = run.u64("snapshot-every", 100);
    const std::string journal_out = run.str("journal-out", "");
    const std::string replay = run.str("replay", "");
    // Fault flags stay out of the recorded params unless passed, so a
    // fault-free doctor report is byte-identical to the pre-fault tool's.
    if (run.present("crash-rate")) {
      opt.faults.crash_rate = run.f64("crash-rate", 0.0);
    }
    if (run.present("drop-rate")) {
      opt.faults.drop_rate = run.f64("drop-rate", 0.0);
    }
    if (opt.faults.active() || run.present("trials")) {
      opt.faults.trials = run.u64("trials", 2000);
    }
    if (opt.faults.active() || run.present("min-success")) {
      opt.faults.min_success = run.f64("min-success", 0.0);
    }
    // Observatory flags (static mode; gated on present() like the fault
    // flags so default reports stay byte-identical).
    if (run.present("trace-out")) {
      opt.trace_out = run.str("trace-out", "");
    }
    if (run.present("load-report")) {
      opt.load_report = run.boolean("load-report", true);
    }
    if (run.present("resource-report")) {
      opt.resource_report = run.boolean("resource-report", true);
    }
    if (run.present("flame-out")) {
      opt.flame_out = run.str("flame-out", "");
    }
    // Span capture feeds --trace-out, --flame-out, and the
    // --resource-report phase table; the accountant feeds the byte ledger.
    // Both are gated on present() so default reports stay byte-identical.
    telemetry::SpanLog spans;
    if (!opt.trace_out.empty() || !opt.flame_out.empty() ||
        opt.resource_report) {
      telemetry::install_span_log(&spans);
    }
    telemetry::MemoryAccountant accountant;
    if (opt.resource_report) telemetry::install_mem_accountant(&accountant);

    run.header("canon_doctor: structural health report",
               "invariants of Sections 2.1, 2.3, 3.4 (audit battery)");

    if (!replay.empty()) return run_replay(run, replay);
    if (churn > 0) return run_churn(run, opt, churn, snapshot_every,
                                    journal_out);
    if (!all && !registry::is_family(family)) {
      std::fprintf(stderr,
                   "canon_doctor: unknown family '%s' (families: %s)\n",
                   family.c_str(), registry::family_list().c_str());
      return 2;
    }
    return run_static(run, opt, family, all, journal_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "canon_doctor: %s\n", e.what());
    return 2;
  }
}
