// Ablation A7 (Section 2.3): dynamic maintenance cost. Messages per join
// (per-level lookups + link updates at existing nodes) should grow as
// O(log n), matching plain Chord. The grown structure is audited at the
// end — a maintenance bug would bias every cost number, so the report
// carries the audit verdict alongside the series.
#include <cmath>
#include <iostream>

#include "audit/auditor.h"
#include "overlay/family_registry.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_maintenance");
  const std::uint64_t seed = run.seed;
  const std::uint64_t max_n = run.u64("max-nodes", 4096);
  run.header("Ablation A7: dynamic maintenance cost",
                "messages per join (lookup hops + nodes updated) vs n, "
                "3-level hierarchy");

  Rng rng(seed);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 10;
  const IdSpace space(32);
  DynamicCrescendo dyn(space);

  TextTable table({"n (before join)", "lookup hops", "nodes updated",
                   "messages", "log2(n)"});
  std::uint64_t next_report = 256;
  Summary hops;
  Summary updated;
  Summary messages;
  while (dyn.size() < max_n) {
    const auto ids = sample_unique_ids(1, space, rng);
    if (dyn.contains(ids[0])) continue;
    const auto paths = generate_hierarchy(1, hier, rng);
    const MaintenanceCost c = dyn.join(OverlayNode{ids[0], paths[0], -1});
    hops.add(c.lookup_hops);
    updated.add(c.nodes_updated);
    messages.add(c.messages());
    if (dyn.size() == next_report) {
      table.add_row({TextTable::num(next_report),
                     TextTable::num(hops.mean(), 1),
                     TextTable::num(updated.mean(), 1),
                     TextTable::num(messages.mean(), 1),
                     TextTable::num(std::log2(
                         static_cast<double>(next_report)), 1)});
      next_report *= 2;
      hops = Summary{};
      updated = Summary{};
      messages = Summary{};
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected: messages track a small multiple of log2(n), as "
               "in plain Chord)\n";

  // Structural audit of the incrementally grown network.
  const LinkTable& links = dyn.link_table();
  const audit::AuditReport audit_report =
      registry::audit_family("crescendo", dyn.network(), links);
  std::cout << "structural audit: " << audit_report.summary() << "\n";
  run.report().set_series(bench::table_to_json(table));
  run.report().set_param("audit", audit_report.to_json());
  const int rc = run.finish();
  return rc != 0 ? rc : (audit_report.ok() ? 0 : 1);
}
