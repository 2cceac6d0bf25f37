// Quickstart: build a Crescendo DHT over a small organizational hierarchy,
// inspect a node's links, and route a lookup.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <span>

#include "canon/crescendo.h"
#include "common/rng.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/trace.h"

using namespace canon;

int main() {
  // 1. A population of 200 nodes arranged in a 3-level hierarchy
  //    (think: university / department / lab), fan-out 4, random 32-bit IDs.
  Rng rng(2026);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  const OverlayNetwork net = make_population(spec, rng);

  // 2. Build the Crescendo link structure (bottom-up ring merging).
  const LinkTable links = build_crescendo(net);
  std::cout << "built Crescendo over " << net.size() << " nodes: "
            << links.total_links() << " links, mean degree "
            << links.mean_degree() << "\n";

  // 3. Inspect one node.
  const std::uint32_t node = 7;
  std::cout << "\nnode " << id_to_hex(net.id(node)) << " in domain \""
            << net.node(node).domain.to_string() << "\" links to:\n";
  for (const auto v : links.neighbors(node)) {
    std::cout << "  " << id_to_hex(net.id(v)) << "  (domain "
              << net.node(v).domain.to_string() << ", shares "
              << net.lca_level(node, v) << " levels)\n";
  }

  // 4. Route a lookup: greedy clockwise routing, hierarchical by
  //    construction. Run as a one-query batch, with a trace sink on the
  //    engine capturing every hop with its hierarchy level (deep level =
  //    local hop, level 0 = crossing top domains).
  const NodeId key = net.space().wrap(rng());
  telemetry::RecordingTraceSink trace;
  QueryEngine engine(net);
  engine.set_trace(&trace);
  const Query query{node, key};
  engine.run(std::span(&query, 1), RingRouter(net, links));
  const auto& lookup = trace.lookups().front();
  std::cout << "\nlookup of key " << id_to_hex(key) << " from node "
            << id_to_hex(net.id(node)) << ":\n";
  const auto print_hop = [&](std::uint32_t at) {
    std::cout << "  -> " << id_to_hex(net.id(at)) << "  (domain "
              << net.node(at).domain.to_string() << ")\n";
  };
  print_hop(lookup.from);
  for (const auto& hop : lookup.hops) print_hop(hop.to);
  std::cout << (lookup.ok ? "reached the responsible node in "
                          : "FAILED after ")
            << lookup.hops.size() << " hops\n";

  // 5. The trace shows the paper's convergence property directly: hops
  //    start at coarse levels and never leave a domain once entered.
  const auto by_level = trace.hops_by_level();
  std::cout << "hops by hierarchy level:";
  for (std::size_t l = 0; l < by_level.size(); ++l) {
    std::cout << "  L" << l << "=" << by_level[l];
  }
  std::cout << "\n";
  return lookup.ok ? 0 : 1;
}
