// Churn: nodes joining and leaving a live Crescendo DHT (Section 2.3).
// Joins cost O(log n) messages, routing keeps working throughout, and the
// incrementally maintained structure stays byte-identical to a
// from-scratch build.
//
// Flags: --nodes=600 --pairs=200 --seed=42 --snapshot-every=100
//        --journal=<path> (JSONL event journal, docs/TELEMETRY.md)
//        --json=<path>    (BenchReport with per-snapshot audit rows)
// The run fails (exit 1) if routing degrades, the maintained links drift
// from a from-scratch construction, or the final structural audit reports
// any violation.
#include <cmath>
#include <iostream>
#include <memory>

#include "audit/auditor.h"
#include "overlay/family_registry.h"
#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/rng.h"
#include "common/table.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/routing.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "churn");
  // The mean join and leave costs need one join and one leave.
  const std::uint64_t target_nodes = run.u64("nodes", 600, 1);
  const std::uint64_t pairs = run.u64("pairs", 200, 1);
  const std::uint64_t snapshot_every = run.u64("snapshot-every", 100);
  const std::string journal_path = run.str("journal", "");
  run.check_flags();

  // Collect maintenance metrics for the whole run. The registry must be
  // installed before DynamicCrescendo is constructed so its instruments
  // resolve against it; BenchRun already installed one when --json was
  // given, otherwise install a local one for the printout below.
  telemetry::MetricsRegistry local;
  telemetry::MetricsRegistry* prev = nullptr;
  const bool own_registry = !run.json_enabled();
  if (own_registry) prev = telemetry::install_registry(&local);
  telemetry::MetricsRegistry& registry = own_registry ? local : run.metrics();

  Rng rng(run.seed * 13 + 77);
  const IdSpace space(32);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 5;
  DynamicCrescendo dht(space);

  std::unique_ptr<telemetry::EventJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<telemetry::EventJournal>(journal_path);
  }
  dht.set_journal(journal.get());

  // Structural audit of the current state; snapshots flow into the
  // journal and the JSON report every --snapshot-every membership ops.
  std::uint64_t ops = 0;
  const auto audit_now = [&] {
    const LinkTable& table = dht.link_table();
    return registry::audit_family("crescendo", dht.network(), table);
  };
  const auto snapshot = [&] {
    const audit::AuditReport report = audit_now();
    if (journal) {
      journal->audit_snapshot(dht.size(), report.total_checks(),
                              report.violations.size());
    }
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("op", telemetry::JsonValue(ops));
    row.set("size",
            telemetry::JsonValue(static_cast<std::uint64_t>(dht.size())));
    row.set("audit", report.to_json());
    run.report().add_row(std::move(row));
    return report;
  };
  const auto after_op = [&] {
    ++ops;
    if (snapshot_every > 0 && ops % snapshot_every == 0) snapshot();
  };

  // Grow to the target size.
  Summary join_msgs;
  while (dht.size() < target_nodes) {
    const auto ids = sample_unique_ids(1, space, rng);
    const auto paths = generate_hierarchy(1, hier, rng);
    const MaintenanceCost c = dht.join({ids[0], paths[0], -1});
    join_msgs.add(c.messages());
    after_op();
  }
  std::cout << "grew to " << dht.size() << " nodes; mean join cost "
            << TextTable::num(join_msgs.mean(), 1) << " messages (log2(n) = "
            << TextTable::num(std::log2(static_cast<double>(target_nodes)), 1)
            << ")\n";

  // Churn: random leaves interleaved with joins.
  Summary leave_msgs;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const auto victim = static_cast<std::uint32_t>(
        rng.uniform(dht.network().size()));
    leave_msgs.add(dht.leave(dht.network().id(victim)).messages());
    after_op();
    const auto ids = sample_unique_ids(1, space, rng);
    const auto paths = generate_hierarchy(1, hier, rng);
    dht.join({ids[0], paths[0], -1});
    after_op();
  }
  std::cout << "after " << pairs << " leave/join pairs; mean leave cost "
            << TextTable::num(leave_msgs.mean(), 1) << " messages\n";

  // Routing still works from everywhere.
  const LinkTable& links = dht.link_table();
  const RingRouter router(dht.network(), links);
  int ok = 0;
  for (int t = 0; t < 1000; ++t) {
    const auto from = static_cast<std::uint32_t>(
        rng.uniform(dht.network().size()));
    const NodeId key = space.wrap(rng());
    ok += router.route(from, key).ok;
  }
  std::cout << "routing success after churn: " << ok << "/1000\n";

  // The maintained structure equals a from-scratch build.
  const LinkTable scratch = build_crescendo(dht.network());
  bool identical = true;
  for (std::uint32_t m = 0; m < dht.network().size() && identical; ++m) {
    const auto a = links.neighbors(m);
    const auto b = scratch.neighbors(m);
    identical = a.size() == b.size() &&
                std::equal(a.begin(), a.end(), b.begin());
  }
  std::cout << "incrementally maintained links "
            << (identical ? "MATCH" : "DIFFER FROM")
            << " a from-scratch construction\n";

  // Final structural audit (always journaled/reported when enabled).
  const audit::AuditReport final_audit = snapshot();
  if (journal) journal->flush();
  std::cout << "structural audit: " << final_audit.summary() << "\n";

  // Leaf sets at each level of one node.
  const NodeId probe = dht.network().id(0);
  std::cout << "\nleaf sets of node " << id_to_hex(probe) << ":\n";
  for (int level = 0;
       level <= dht.network().domains().node_depth(0); ++level) {
    std::cout << "  level " << level << ":";
    for (const NodeId s : dht.leaf_set(probe, level, 4)) {
      std::cout << " " << id_to_hex(s);
    }
    std::cout << "\n";
  }

  // What the telemetry layer saw, without any bookkeeping in the loops
  // above: the DynamicCrescendo instruments record into the registry.
  std::cout << "\ntelemetry:\n";
  for (const auto& [name, counter] : registry.counters()) {
    std::cout << "  " << name << " = " << counter.value() << "\n";
  }
  for (const auto& [name, hist] : registry.histograms()) {
    std::cout << "  " << name << ": n=" << hist.count() << ", mean "
              << TextTable::num(hist.mean_ms(), 3) << " ms, p99 "
              << TextTable::num(hist.quantile_upper_ms(0.99), 3) << " ms\n";
  }
  if (own_registry) telemetry::install_registry(prev);
  const int rc = run.finish();
  if (rc != 0) return rc;
  return identical && ok == 1000 && final_audit.ok() ? 0 : 1;
}
