// Ablation A5 (Section 2.2): fault isolation, measured under injected
// faults instead of by rebuilding survivor sub-networks.
//
// Every node outside one level-1 domain crashes at once (a FaultPlan of
// explicit fail-stops), and the survivors route an intra-domain workload
// through their family's failure-aware core. A hierarchy-respecting
// family keeps its per-domain rings self-contained, so survival stays at
// ~1.0; flat families — whose fingers and successors mostly point outside
// the domain — collapse. Unlike the old survivor-subnetwork rebuild, the
// routers here run over the *original* link tables with the dead marked
// dead, which is the failure model the failure-aware walk implements.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_fault_isolation");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 8192, 1);
  const std::uint64_t trials = run.u64("trials", 2000);
  run.header("Ablation A5: fault isolation",
                "all nodes outside one level-1 domain fail (injected "
                "fail-stop); fraction of intra-domain routes that still "
                "succeed, per family");

  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  Rng rng(seed);
  const auto net = make_population(spec, rng);
  const QueryEngine engine(net);

  // The level-1 domains that stay up, one scenario per domain: everything
  // outside crashes. Keep the old bench's shape (first four big-enough
  // children of the root).
  std::vector<int> scenarios;
  for (const int d : net.domains().domain(net.domains().root()).children) {
    if (net.domains().domain(d).members.size() >= 10) scenarios.push_back(d);
    if (scenarios.size() >= 4) break;
  }

  std::vector<std::string> header = {"family"};
  for (const int d : scenarios) {
    const std::size_t alive = net.domains().domain(d).members.size();
    header.push_back(
        TextTable::num(static_cast<double>(n - alive) /
                       static_cast<double>(alive), 1) + "x dead");
  }
  TextTable table(header);
  // Success alone no longer separates the ring families: the shared
  // recovery core gives every one of them per-level leaf sets, so even
  // flat Chord eventually crawls to the right survivor. What prices the
  // missing hierarchy is the recovery work — fallback hops per lookup.
  TextTable fallback_table(std::move(header));

  for (const registry::FamilyEntry& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, seed);
    const registry::FamilyRouter router = entry.make_router(net, links);
    std::vector<std::string> cells = {std::string(entry.name)};
    std::vector<std::string> fallback_cells = {std::string(entry.name)};
    for (const int d : scenarios) {
      const auto& members = net.domains().domain(d).members;
      FaultPlan plan;
      {
        std::vector<bool> in_domain(net.size(), false);
        for (const std::uint32_t m : members) in_domain[m] = true;
        for (std::uint32_t i = 0; i < net.size(); ++i) {
          if (!in_domain[i]) plan.crash(i);
        }
      }
      const FailureSet dead = plan.materialize(net);
      // Intra-domain workload: source and target both drawn from the
      // survivors, key = the target's own ID (the draw the old bench
      // made). Deterministic per (seed, domain), thread-invariant.
      const auto queries = generate_workload(
          trials, Rng(seed + static_cast<std::uint64_t>(d)),
          [&](Rng& qrng, std::size_t) {
            Query q;
            q.from = members[qrng.uniform(members.size())];
            q.key = net.id(members[qrng.uniform(members.size())]);
            return q;
          });
      const ResilientStats st =
          router.run_resilient_with(engine, queries, dead, plan);
      cells.push_back(TextTable::num(st.success_rate(), 3));
      fallback_cells.push_back(TextTable::num(
          static_cast<double>(st.fallback_hops) /
              static_cast<double>(st.attempted()), 2));

      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("family", telemetry::JsonValue(entry.name));
      row.set("domain", telemetry::JsonValue(
                            static_cast<std::int64_t>(d)));
      row.set("survivors", telemetry::JsonValue(
                               static_cast<std::uint64_t>(members.size())));
      row.set("crashed", telemetry::JsonValue(
                             static_cast<std::uint64_t>(dead.dead_count())));
      row.set("attempted", telemetry::JsonValue(st.attempted()));
      row.set("ok", telemetry::JsonValue(st.base.ok()));
      row.set("success", telemetry::JsonValue(st.success_rate()));
      row.set("retries", telemetry::JsonValue(st.retries));
      row.set("fallback_hops", telemetry::JsonValue(st.fallback_hops));
      run.report().add_row(std::move(row));
    }
    table.add_row(std::move(cells));
    fallback_table.add_row(std::move(fallback_cells));
  }
  std::cout << "-- survival (fraction of intra-domain lookups that "
               "succeed) --\n";
  table.print(std::cout);
  std::cout << "\n-- recovery cost (fallback hops per lookup) --\n";
  fallback_table.print(std::cout);
  std::cout << "\n(expected: the hierarchical families route intra-domain "
               "with zero fallbacks — their per-domain rings/zones are "
               "self-contained; flat ring families survive only by leaning "
               "on leaf-set recovery every hop, and the flat XOR/CAN/group "
               "families collapse outright)\n";
  return run.finish();
}
