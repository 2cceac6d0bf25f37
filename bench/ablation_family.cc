// Ablation A4 (Sections 3.1-3.4): the rest of the Canon family vs their
// flat originals — degree, hops and routing success for Cacophony,
// nondeterministic Crescendo, Kandy (both merge policies) and Can-Can.
//
// The Canon variants go through the family registry: one build + one
// make_router per row, no hand-wired router types. The flat originals
// route directly — they run over a separate single-level population, which
// is outside the registry's hierarchical-net conventions. Each system
// routes its own pre-generated workload (forked off the shared experiment
// RNG) through the batch QueryEngine; hop means cover successful routes.
#include <iostream>

#include "bench/bench_util.h"
#include "canon/kandy.h"
#include "common/table.h"
#include "dht/can.h"
#include "dht/kademlia.h"
#include "dht/nondet_chord.h"
#include "dht/symphony.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"

using namespace canon;

namespace {

struct Row {
  std::string name;
  double degree = 0;
  double hops = 0;
  double success = 0;
};

Row from_stats(std::string name, double degree, const QueryStats& st) {
  return Row{std::move(name), degree, st.hops.mean(),
             static_cast<double>(st.ok()) / static_cast<double>(st.queries)};
}

/// Routes a fresh workload (forked off `rng`, which advances by one draw)
/// through the engine on any GreedyRouter.
template <typename Router>
Row measure(const std::string& name, double degree, const Router& router,
            const OverlayNetwork& net, std::uint64_t trials, Rng& rng) {
  const QueryEngine engine(net);
  const auto queries = uniform_workload(net, trials, rng.fork(rng()));
  return from_stats(name, degree, engine.run(queries, router));
}

/// A Canon-variant row over an already-built table, routed through the
/// registry's batch wrapper for `family`.
Row measure_family(const std::string& name, std::string_view family,
                   const OverlayNetwork& net, const LinkTable& links,
                   std::uint64_t trials, Rng& rng) {
  const QueryEngine engine(net);
  const auto router = registry::family(family).make_router(net, links);
  const auto queries = uniform_workload(net, trials, rng.fork(rng()));
  return from_stats(name, links.mean_degree(), router.run(engine, queries));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_family");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 8192, 1);
  const std::uint64_t trials = run.u64("trials", 2000, 1);
  run.header("Ablation A4: the Canon family vs flat originals",
                "degree / hops / success; 8192 nodes, 3-level hierarchy "
                "(fanout 10, Zipf)");

  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  Rng rng(seed);
  const auto net = make_population(spec, rng);
  PopulationSpec flat_spec = spec;
  flat_spec.hierarchy.levels = 1;
  Rng flat_rng(seed);
  const auto flat = make_population(flat_spec, flat_rng);

  // Canon variant rows build through their registry entry (drawing from
  // the same shared rng stream the hand-wired blocks used).
  const auto canon_row = [&](const std::string& name,
                             std::string_view family) {
    const LinkTable links = registry::family(family).build(net, rng);
    return measure_family(name, family, net, links, trials, rng);
  };

  std::vector<Row> rows;
  {
    const auto links = build_symphony(flat, rng);
    const RingRouter r(flat, links);
    rows.push_back(
        measure("Symphony (flat)", links.mean_degree(), r, flat, trials, rng));
  }
  rows.push_back(canon_row("Cacophony", "cacophony"));
  {
    const auto links = build_nondet_chord(flat, rng);
    const RingRouter r(flat, links);
    rows.push_back(measure("Nondet Chord (flat)", links.mean_degree(), r,
                           flat, trials, rng));
  }
  rows.push_back(canon_row("Nondet Crescendo", "nondet_crescendo"));
  {
    const auto links = build_kademlia(flat);
    const XorRouter r(flat, links);
    rows.push_back(measure("Kademlia (flat)", links.mean_degree(), r, flat,
                           trials, rng));
  }
  rows.push_back(canon_row("Kandy (frugal merge)", "kandy"));
  {
    // The literal-merge variant is not a registry family of its own; build
    // it directly and route through the kandy entry's XOR wrapper.
    const auto links = build_kandy(net, MergePolicy::kLiteral);
    rows.push_back(measure_family("Kandy (literal merge)", "kandy", net,
                                  links, trials, rng));
  }
  {
    const auto links = build_can(flat);
    const CanRouter r(flat, links);
    rows.push_back(measure("CAN (flat, prefix-tree)", links.mean_degree(), r,
                           flat, trials, rng));
  }
  rows.push_back(canon_row("Can-Can", "cancan"));

  TextTable table({"system", "mean degree", "mean hops", "success"});
  for (const auto& row : rows) {
    table.add_row({row.name, TextTable::num(row.degree, 2),
                   TextTable::num(row.hops, 2),
                   TextTable::num(row.success, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(expected: every Canonical version keeps ~flat degree and "
               "hops with success 1.0; literal Kandy trades extra links for "
               "slightly shorter XOR paths)\n";
  run.report().set_series(bench::table_to_json(table));
  return run.finish();
}
