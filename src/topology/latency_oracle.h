// Exact router-to-router latencies from the transit-stub structure, in O(1)
// per query and O(T^2 + sum of s^2) memory.
//
// Every stub domain joins the transit core through exactly one gateway edge
// (transit_stub.cc). Two consequences make a shortest path decompose:
//
// * a shortest path between two routers of one stub domain never leaves
//   it: leaving and coming back would cross the gateway edge twice;
// * no shortest path between transit routers passes through a stub domain,
//   for the same reason.
//
// So the routers split into groups — the transit core, and one group per
// stub domain — and each group keeps its own all-pairs block, computed
// over its internal edges alone. A pair inside one group reads its block.
// Any other pair climbs to the gateways and crosses the core:
//
//   d(a, b) = up(a) + core(T_a, T_b) + up(b)
//
// where T_r is r's gateway transit router and up(r) is r's distance inside
// its stub domain to the gateway member plus the gateway edge (a transit
// router is its own gateway, with up = 0). On the paper's 2040-router graph
// that is a 40 x 40 core plus 200 blocks of 10 x 10 (127 KB with the
// per-router records) instead of a 16.6 MB all-pairs matrix.
//
// With whole-ms edge weights, as the paper's link classes are, every sum
// below 2^24 is exact in float and in any order: latency() returns the same
// doubles as a full Dijkstra over the router graph (other weights agree up
// to float rounding). Construction runs one Dijkstra per router inside its
// own group — about a millisecond at paper scale — and is timed under
// build.latency_oracle_ms. The constructor throws std::logic_error when the
// topology breaks the one-gateway structure or a group is disconnected.
#ifndef CANON_TOPOLOGY_LATENCY_ORACLE_H
#define CANON_TOPOLOGY_LATENCY_ORACLE_H

#include <cstdint>
#include <vector>

#include "telemetry/mem_stats.h"
#include "topology/transit_stub.h"

namespace canon {

class LatencyOracle {
 public:
  explicit LatencyOracle(const TransitStubTopology& topo);

  int router_count() const { return static_cast<int>(routers_.size()); }

  /// Shortest-path latency in ms between two routers (0 when a == b).
  double latency(int a, int b) const {
    const Router& ra = routers_[static_cast<std::size_t>(a)];
    const Router& rb = routers_[static_cast<std::size_t>(b)];
    if (ra.group == rb.group) return blocks_[ra.row + rb.col];
    return static_cast<double>(ra.up) +
           static_cast<double>(blocks_[ra.gateway * core_size_ + rb.gateway]) +
           static_cast<double>(rb.up);
  }

 private:
  /// Where a router sits in the tables.
  struct Router {
    std::uint32_t group = 0;    ///< 0 is the transit core, then stub domains
    std::uint32_t row = 0;      ///< offset of its row in its group's block
    std::uint32_t col = 0;      ///< its index within its group
    std::uint32_t gateway = 0;  ///< core index of its gateway transit router
    float up = 0;               ///< ms to that gateway (0 on the core)
  };

  std::vector<Router> routers_;
  /// Every group's all-pairs block, row-major; the core's block comes
  /// first, so core(i, j) is blocks_[i * core_size_ + j].
  std::vector<float> blocks_;
  std::uint32_t core_size_ = 0;
  // The ledger tag keeps the name of the all-pairs matrix this replaced:
  // perfbench reports it as mem.topology.latency_matrix.peak_bytes.
  telemetry::MemCharge mem_;
};

}  // namespace canon

#endif  // CANON_TOPOLOGY_LATENCY_ORACLE_H
