// Tests for the transit-stub topology, the latency oracle (against a plain
// Dijkstra over the whole router graph), host attachment and the induced
// hierarchy.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "telemetry/mem_stats.h"
#include "topology/physical_network.h"

namespace canon {
namespace {

TransitStubConfig small_config() {
  TransitStubConfig cfg;
  cfg.transit_domains = 3;
  cfg.transit_per_domain = 2;
  cfg.stub_domains_per_transit = 2;
  cfg.stubs_per_domain = 4;
  return cfg;
}

TEST(TransitStub, RouterCountsMatchConfig) {
  Rng rng(401);
  const TransitStubTopology topo(small_config(), rng);
  // 3*2 transit + 3*2*2*4 stub = 6 + 48.
  EXPECT_EQ(topo.router_count(), 54);
  EXPECT_EQ(topo.stub_routers().size(), 48u);
  int transit = 0;
  for (int r = 0; r < topo.router_count(); ++r) {
    transit += topo.router(r).is_transit;
  }
  EXPECT_EQ(transit, 6);
}

TEST(TransitStub, PaperScaleIs2040Routers) {
  Rng rng(402);
  const TransitStubTopology topo(TransitStubConfig{}, rng);
  EXPECT_EQ(topo.router_count(), 2040);
  EXPECT_EQ(topo.stub_routers().size(), 2000u);
}

TEST(TransitStub, EdgeLatenciesMatchClasses) {
  Rng rng(403);
  const TransitStubTopology topo(small_config(), rng);
  for (int r = 0; r < topo.router_count(); ++r) {
    for (const auto& e : topo.edges(r)) {
      const bool a_transit = topo.router(r).is_transit;
      const bool b_transit = topo.router(e.to).is_transit;
      if (a_transit && b_transit) {
        EXPECT_DOUBLE_EQ(e.ms, 100.0);
      } else if (a_transit != b_transit) {
        EXPECT_DOUBLE_EQ(e.ms, 20.0);
      } else {
        EXPECT_DOUBLE_EQ(e.ms, 5.0);
      }
    }
  }
}

TEST(TransitStub, HierarchyPathHasFourComponents) {
  Rng rng(404);
  const TransitStubTopology topo(small_config(), rng);
  for (const int r : topo.stub_routers()) {
    const DomainPath p = topo.host_hierarchy_path(r);
    ASSERT_EQ(p.depth(), 4);
    EXPECT_EQ(p.branch(0), topo.router(r).transit_domain);
    EXPECT_EQ(p.branch(3), topo.router(r).stub_index);
  }
  EXPECT_THROW(topo.host_hierarchy_path(0), std::invalid_argument);
}

TEST(LatencyOracle, SymmetricZeroDiagonalConnected) {
  Rng rng(405);
  const TransitStubTopology topo(small_config(), rng);
  const LatencyOracle m(topo);
  for (int a = 0; a < topo.router_count(); a += 7) {
    EXPECT_DOUBLE_EQ(m.latency(a, a), 0.0);
    for (int b = 0; b < topo.router_count(); b += 5) {
      EXPECT_NEAR(m.latency(a, b), m.latency(b, a), 1e-6);
      if (a != b) {
        EXPECT_GT(m.latency(a, b), 0.0);
      }
    }
  }
}

TEST(LatencyOracle, IntraStubDomainIsCheap) {
  Rng rng(406);
  const TransitStubTopology topo(small_config(), rng);
  const LatencyOracle m(topo);
  // Two stub routers in the same stub domain: only 5 ms links between them.
  const auto& stubs = topo.stub_routers();
  for (std::size_t i = 0; i + 1 < stubs.size(); ++i) {
    const auto& a = topo.router(stubs[i]);
    const auto& b = topo.router(stubs[i + 1]);
    if (a.transit_domain == b.transit_domain &&
        a.transit_index == b.transit_index && a.stub_domain == b.stub_domain) {
      EXPECT_LE(m.latency(stubs[i], stubs[i + 1]), 5.0 * 4);
    }
  }
}

TEST(LatencyOracle, CrossDomainIsExpensive) {
  Rng rng(407);
  const TransitStubTopology topo(small_config(), rng);
  const LatencyOracle m(topo);
  // Stub routers under different transit domains must cross two 20 ms
  // gateways and at least one 100 ms transit link.
  const auto& stubs = topo.stub_routers();
  int checked = 0;
  for (std::size_t i = 0; i < stubs.size() && checked < 20; ++i) {
    for (std::size_t j = i + 1; j < stubs.size() && checked < 20; ++j) {
      if (topo.router(stubs[i]).transit_domain !=
          topo.router(stubs[j]).transit_domain) {
        EXPECT_GE(m.latency(stubs[i], stubs[j]), 20 + 100 + 20);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

/// The reference: plain single-source Dijkstra from `src` over the whole
/// router graph, blind to the transit-stub structure the oracle exploits.
void single_source_latencies(const TransitStubTopology& topo, int src,
                             std::vector<double>& dist) {
  const std::size_t n = static_cast<std::size_t>(topo.router_count());
  dist.assign(n, std::numeric_limits<double>::infinity());
  dist[static_cast<std::size_t>(src)] = 0;
  using Item = std::pair<double, int>;  // (distance, router)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, src);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : topo.edges(u)) {
      const double nd = d + e.ms;
      if (nd < dist[static_cast<std::size_t>(e.to)]) {
        dist[static_cast<std::size_t>(e.to)] = nd;
        queue.emplace(nd, e.to);
      }
    }
  }
}

/// Pairs compared, by the oracle branch that answers them.
struct PairClasses {
  std::uint64_t transit_transit = 0;
  std::uint64_t stub_transit = 0;
  std::uint64_t same_stub_domain = 0;
  std::uint64_t cross_stub_domain = 0;
};

/// Expects the oracle's latency from each of `sources` to every router to
/// equal the reference Dijkstra's double bit for bit, counting the pairs
/// compared into `seen`.
void expect_matches_dijkstra(const TransitStubTopology& topo,
                             const std::vector<int>& sources,
                             PairClasses& seen) {
  const LatencyOracle oracle(topo);
  EXPECT_EQ(oracle.router_count(), topo.router_count());
  std::vector<double> dist;
  for (const int a : sources) {
    single_source_latencies(topo, a, dist);
    const RouterInfo& ra = topo.router(a);
    for (int b = 0; b < topo.router_count(); ++b) {
      EXPECT_EQ(oracle.latency(a, b), dist[static_cast<std::size_t>(b)])
          << "routers " << a << " -> " << b;
      const RouterInfo& rb = topo.router(b);
      if (ra.is_transit && rb.is_transit) {
        ++seen.transit_transit;
      } else if (ra.is_transit || rb.is_transit) {
        ++seen.stub_transit;
      } else if (ra.transit_domain == rb.transit_domain &&
                 ra.transit_index == rb.transit_index &&
                 ra.stub_domain == rb.stub_domain) {
        ++seen.same_stub_domain;
      } else {
        ++seen.cross_stub_domain;
      }
    }
    if (::testing::Test::HasFailure()) break;  // one bad row says enough
  }
}

std::vector<int> all_routers(const TransitStubTopology& topo) {
  std::vector<int> routers(static_cast<std::size_t>(topo.router_count()));
  for (int r = 0; r < topo.router_count(); ++r) {
    routers[static_cast<std::size_t>(r)] = r;
  }
  return routers;
}

TEST(LatencyOracle, MatchesDijkstraOnThePaperTopology) {
  // The default 2040-router config, every pair, at two seeds.
  for (const std::uint64_t seed : {42u, 7u}) {
    Rng rng(seed);
    const TransitStubTopology topo(TransitStubConfig{}, rng);
    PairClasses seen;
    expect_matches_dijkstra(topo, all_routers(topo), seen);
    EXPECT_EQ(seen.transit_transit, 40u * 40u) << "seed " << seed;
  }
}

/// A random transit-stub config with whole-ms edge weights. The first four
/// draws force the corner shapes: one transit domain, one transit router
/// per domain, no stub domains, and one-router stub domains.
TransitStubConfig random_whole_ms_config(Rng& rng, int draw) {
  TransitStubConfig cfg;
  cfg.transit_domains = 1 + static_cast<int>(rng.uniform(6));
  cfg.transit_per_domain = 1 + static_cast<int>(rng.uniform(5));
  cfg.stub_domains_per_transit = static_cast<int>(rng.uniform(6));
  cfg.stubs_per_domain = 1 + static_cast<int>(rng.uniform(16));
  cfg.transit_transit_ms = static_cast<double>(1 + rng.uniform(200));
  cfg.transit_stub_ms = static_cast<double>(1 + rng.uniform(50));
  cfg.stub_stub_ms = static_cast<double>(1 + rng.uniform(20));
  cfg.extra_domain_edges = static_cast<int>(rng.uniform(10));
  cfg.extra_edge_fraction = 0.25 * static_cast<double>(rng.uniform(5));
  switch (draw) {
    case 0: cfg.transit_domains = 1; break;
    case 1: cfg.transit_per_domain = 1; break;
    case 2: cfg.stub_domains_per_transit = 0; break;
    case 3: cfg.stubs_per_domain = 1; break;
    default: break;
  }
  return cfg;
}

TEST(LatencyOracle, MatchesDijkstraOnRandomWholeMsConfigs) {
  Rng rng(2004);
  PairClasses seen;
  for (int draw = 0; draw < 16; ++draw) {
    const TransitStubConfig cfg = random_whole_ms_config(rng, draw);
    const TransitStubTopology topo(cfg, rng);
    SCOPED_TRACE(testing::Message()
                 << "draw " << draw << ": " << cfg.transit_domains << "x"
                 << cfg.transit_per_domain << " transit, "
                 << cfg.stub_domains_per_transit << "x"
                 << cfg.stubs_per_domain << " stub");
    expect_matches_dijkstra(topo, all_routers(topo), seen);
  }
  // Every branch of the oracle answered some of the pairs.
  EXPECT_GT(seen.transit_transit, 0u);
  EXPECT_GT(seen.stub_transit, 0u);
  EXPECT_GT(seen.same_stub_domain, 0u);
  EXPECT_GT(seen.cross_stub_domain, 0u);
}

TEST(LatencyOracle, MatchesDijkstraPast4096Routers) {
  // bench_scale's physical row: 40 transit + 40 * 8 * 16 stub routers.
  TransitStubConfig cfg;
  cfg.stub_domains_per_transit = 8;
  cfg.stubs_per_domain = 16;
  Rng rng(42);
  const TransitStubTopology topo(cfg, rng);
  ASSERT_EQ(topo.router_count(), 5160);
  // Every destination from every transit router plus a seeded sample.
  std::vector<int> sources;
  for (int r = 0; r < topo.router_count(); ++r) {
    if (topo.router(r).is_transit) sources.push_back(r);
  }
  for (int i = 0; i < 64; ++i) {
    sources.push_back(static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(topo.router_count()))));
  }
  PairClasses seen;
  expect_matches_dijkstra(topo, sources, seen);
  EXPECT_GT(seen.same_stub_domain, 0u);
  EXPECT_GT(seen.cross_stub_domain, 0u);
}

TEST(LatencyOracle, LedgerHoldsTablesFarSmallerThanAMatrix) {
  telemetry::MemoryAccountant acct;
  telemetry::MemoryAccountant* prev = telemetry::install_mem_accountant(&acct);
  std::uint64_t bytes = 0;
  {
    Rng rng(42);
    const LatencyOracle oracle(TransitStubTopology(TransitStubConfig{}, rng));
    const auto it = acct.tags().find("topology.latency_matrix");
    if (it != acct.tags().end()) bytes = it->second.current;
  }
  telemetry::install_mem_accountant(prev);
  // 40^2 + 200 * 10^2 float entries plus one record per router, against
  // the 2040^2 floats (16.6 MB) of an all-pairs matrix.
  EXPECT_GE(bytes, (40u * 40u + 200u * 10u * 10u) * sizeof(float));
  EXPECT_LE(bytes, 400000u);
}

TEST(PhysicalNetwork, HostLatencyAddsLastMile) {
  Rng rng(408);
  const PhysicalNetwork phys(small_config(), rng);
  const int s0 = phys.topology().stub_routers()[0];
  const int s1 = phys.topology().stub_routers()[1];
  EXPECT_DOUBLE_EQ(phys.host_latency(s0, s0), 2.0);
  EXPECT_DOUBLE_EQ(phys.host_latency(s0, s1),
                   2.0 + phys.latencies().latency(s0, s1));
}

TEST(PhysicalNetwork, MeanHostLatencyIsPlausible) {
  Rng rng(409);
  const PhysicalNetwork phys(small_config(), rng);
  const double mean = phys.mean_host_latency(2000, rng);
  EXPECT_GT(mean, 2.0);
  EXPECT_LT(mean, 1000.0);
}

TEST(PhysicalPopulation, AttachesRoundRobinWithInducedHierarchy) {
  Rng rng(410);
  const PhysicalNetwork phys(small_config(), rng);
  const auto net = make_physical_population(96, phys, 24, rng);
  EXPECT_EQ(net.size(), 96u);
  // 96 hosts over 48 stub routers: exactly 2 per stub router.
  std::map<int, int> per_stub;
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    ASSERT_GE(net.node(i).attach, 0);
    ++per_stub[net.node(i).attach];
    EXPECT_EQ(net.node(i).domain.depth(), 4);
  }
  for (const auto& [stub, count] : per_stub) EXPECT_EQ(count, 2);
  // Hierarchy has 5 levels (root + 4).
  EXPECT_EQ(net.domains().max_depth(), 4);
}

TEST(PhysicalPopulation, HopCostMatchesLatency) {
  Rng rng(411);
  const PhysicalNetwork phys(small_config(), rng);
  const auto net = make_physical_population(50, phys, 24, rng);
  const HopCost cost = host_hop_cost(net, phys);
  for (std::uint32_t a = 0; a < 10; ++a) {
    for (std::uint32_t b = 0; b < 10; ++b) {
      EXPECT_DOUBLE_EQ(cost(a, b),
                       phys.host_latency(net.node(a).attach,
                                         net.node(b).attach));
    }
  }
}

}  // namespace
}  // namespace canon
