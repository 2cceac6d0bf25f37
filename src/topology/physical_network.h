// Ties the overlay to the physical topology: host attachment, host-to-host
// latencies, the induced five-level hierarchy, and overlay populations
// placed on the topology (Section 5.2's experimental setup).
#ifndef CANON_TOPOLOGY_PHYSICAL_NETWORK_H
#define CANON_TOPOLOGY_PHYSICAL_NETWORK_H

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"

namespace canon {

/// A generated router graph plus its exact latency oracle (see
/// latency_oracle.h), at any router count.
class PhysicalNetwork {
 public:
  PhysicalNetwork(const TransitStubConfig& config, Rng& rng)
      : topo_(config, rng), latency_(topo_) {}

  const TransitStubTopology& topology() const { return topo_; }
  const LatencyOracle& latencies() const { return latency_; }

  /// Latency between hosts attached to stub routers `ra` and `rb`:
  /// 1 ms up + router path + 1 ms down (2 ms between hosts on one stub).
  double host_latency(int ra, int rb) const {
    return 2 * topo_.config().host_stub_ms + latency_.latency(ra, rb);
  }

  /// Mean host-to-host latency over `samples` random stub-router pairs —
  /// the paper's stretch normalizer ("average shortest-path latency
  /// between any two nodes").
  double mean_host_latency(int samples, Rng& rng) const;

 private:
  TransitStubTopology topo_;
  LatencyOracle latency_;
};

/// Builds an overlay population of `count` hosts attached uniformly
/// (round-robin) to the stub routers, with each node's hierarchy position
/// induced by the topology. IDs are random in `id_bits` bits.
OverlayNetwork make_physical_population(std::size_t count,
                                        const PhysicalNetwork& phys,
                                        int id_bits, Rng& rng);

/// Per-hop latency callback for routes over `net` (nodes must carry their
/// stub-router attachment, as make_physical_population arranges).
HopCost host_hop_cost(const OverlayNetwork& net, const PhysicalNetwork& phys);

}  // namespace canon

#endif  // CANON_TOPOLOGY_PHYSICAL_NETWORK_H
