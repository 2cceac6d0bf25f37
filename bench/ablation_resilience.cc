// Ablation A6 (Sections 2.3, 3.x): routing availability under injected
// failures, for every family in the registry, plus the classic leaf-set
// sweep for Crescendo.
//
// Every family builds once, then routes the same pre-generated workload
// through its failure-aware router under FaultPlan::fail_fraction kill
// sets of {0, 10, 30, 50}% (nested in the fraction: every node dead at
// 10% is dead at 30%, so success rates are comparable down a column).
// Dead sources are skipped — availability, not success rate, prices them
// in. --drop-rate adds a per-forwarding message-drop probability on top.
//
// The 0% rows run the resilient engine with an empty plan, which is
// byte-identical to the plain batch engine — the zero-cost-when-healthy
// contract (docs/RESILIENCE.md).
#include <iostream>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

using namespace canon;

namespace {

constexpr int kFailPercents[] = {0, 10, 30, 50};

telemetry::JsonValue resilience_row(std::string_view family, int fail_pct,
                                    const ResilientStats& st) {
  telemetry::JsonValue row = telemetry::JsonValue::object();
  row.set("family", telemetry::JsonValue(family));
  row.set("fail_pct", telemetry::JsonValue(fail_pct));
  row.set("attempted", telemetry::JsonValue(st.attempted()));
  row.set("ok", telemetry::JsonValue(st.base.ok()));
  row.set("success", telemetry::JsonValue(st.success_rate()));
  row.set("availability", telemetry::JsonValue(st.availability()));
  row.set("retries", telemetry::JsonValue(st.retries));
  row.set("fallback_hops", telemetry::JsonValue(st.fallback_hops));
  row.set("skipped_dead_source",
          telemetry::JsonValue(st.skipped_dead_source));
  // mean() throws on an empty Summary; a cell where nothing succeeded
  // (deep kill fractions, leaf set=0) reports 0 hops.
  row.set("mean_hops", telemetry::JsonValue(
                           st.base.hops.count() ? st.base.hops.mean() : 0.0));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_resilience");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 4096, 1);
  const std::uint64_t trials = run.u64("trials", 2000);
  // Out of the recorded params unless passed: a drop-free report stays
  // byte-identical to one from a build without the flag.
  const double drop_rate =
      run.present("drop-rate") ? run.fraction("drop-rate", 0.0) : 0.0;
  run.header("Ablation A6: routing availability under failures",
                "fraction of lookups that reach the live responsible node; "
                "every family, fail-stop {0,10,30,50}% + leaf-set sweep");

  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  Rng rng(seed);
  const auto net = make_population(spec, rng);
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, trials, Rng(seed).fork(1));

  const auto plan_for = [&](int percent) {
    FaultPlan plan = FaultPlan::fail_fraction(
        net.size(), static_cast<double>(percent) / 100.0, seed);
    if (drop_rate > 0.0) plan.set_drop(drop_rate);
    return plan;
  };

  TextTable table({"family", "0% fail", "10% fail", "30% fail", "50% fail"});
  for (const registry::FamilyEntry& entry : registry::families()) {
    const LinkTable links = registry::build_family(net, entry.name, seed);
    const registry::FamilyRouter router = entry.make_router(net, links);
    std::vector<std::string> cells = {std::string(entry.name)};
    for (const int percent : kFailPercents) {
      const ResilientStats st =
          router.run_resilient(engine, queries, plan_for(percent));
      cells.push_back(TextTable::num(st.success_rate(), 3));
      run.report().add_row(resilience_row(entry.name, percent, st));
    }
    table.add_row(std::move(cells));
  }
  table.print(std::cout);

  // The classic leaf-set ablation: Crescendo's ring fallback depth is the
  // recovery knob the paper's Section 2.3 leans on.
  const auto crescendo = build_crescendo(net);
  TextTable leaf_table({"failed fraction", "leaf set=0", "leaf set=2",
                        "leaf set=4", "leaf set=8"});
  for (const int percent : kFailPercents) {
    const FaultPlan plan = plan_for(percent);
    std::vector<std::string> row = {std::to_string(percent) + "%"};
    for (const int leaf : {0, 2, 4, 8}) {
      const RingRouter router(net, crescendo, leaf);
      const ResilientStats st = engine.run_resilient(queries, router, plan);
      row.push_back(TextTable::num(st.success_rate(), 3));
      telemetry::JsonValue jrow =
          resilience_row("crescendo", percent, st);
      jrow.set("leaf_set", telemetry::JsonValue(
                               static_cast<std::int64_t>(leaf)));
      run.report().add_row(std::move(jrow));
    }
    leaf_table.add_row(std::move(row));
  }
  std::cout << "\n";
  leaf_table.print(std::cout);
  std::cout << "\n(expected: ring families hold ~1.0 through 30% via leaf "
               "sets; XOR/CAN families degrade gracefully; bare fingers "
               "(leaf set=0) lose lookups early)\n";
  return run.finish();
}
