#include "topology/latency_oracle.h"

#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "telemetry/scoped_timer.h"

namespace canon {

LatencyOracle::LatencyOracle(const TransitStubTopology& topo) {
  telemetry::ScopedTimer timer("build.latency_oracle_ms");
  const TransitStubConfig& c = topo.config();
  const int n = topo.router_count();

  // Group 0 is the transit core; stub domain sd under transit router
  // (td, ti) is group 1 + (td * transit_per_domain + ti) *
  // stub_domains_per_transit + sd. Members take their group's indices in
  // router order.
  const std::size_t groups =
      1 + static_cast<std::size_t>(c.transit_domains) *
              static_cast<std::size_t>(c.transit_per_domain) *
              static_cast<std::size_t>(c.stub_domains_per_transit);
  std::vector<std::uint32_t> size(groups, 0);
  routers_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const RouterInfo& info = topo.router(r);
    Router& rec = routers_[static_cast<std::size_t>(r)];
    if (!info.is_transit) {
      rec.group = static_cast<std::uint32_t>(
          1 + (info.transit_domain * c.transit_per_domain +
               info.transit_index) *
                  c.stub_domains_per_transit +
              info.stub_domain);
    }
    rec.col = size[rec.group]++;
  }
  core_size_ = size[0];
  std::vector<std::size_t> base(groups);
  std::size_t entries = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    base[g] = entries;
    entries += static_cast<std::size_t>(size[g]) * size[g];
  }
  if (entries > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("LatencyOracle: blocks exceed 2^32 entries");
  }
  for (Router& rec : routers_) {
    rec.row = static_cast<std::uint32_t>(base[rec.group] +
                                         std::size_t{rec.col} * size[rec.group]);
  }

  // The structure the decomposition rests on: exactly one edge leaves each
  // stub domain, and it lands on a transit router.
  struct Gateway {
    int member = 0;   // the stub router on the domain's side
    int transit = 0;  // the transit router it hangs off
    double ms = 0;
    int edges = 0;
  };
  std::vector<Gateway> gateways(groups);
  for (int r = 0; r < n; ++r) {
    const std::uint32_t g = routers_[static_cast<std::size_t>(r)].group;
    if (g == 0) continue;
    for (const auto& e : topo.edges(r)) {
      const std::uint32_t h = routers_[static_cast<std::size_t>(e.to)].group;
      if (h == g) continue;
      if (h != 0) {
        throw std::logic_error("LatencyOracle: an edge joins two stub domains");
      }
      gateways[g] = Gateway{r, e.to, e.ms, gateways[g].edges + 1};
    }
  }
  for (std::size_t g = 1; g < groups; ++g) {
    if (gateways[g].edges != 1) {
      throw std::logic_error(
          "LatencyOracle: a stub domain must have exactly one gateway edge");
    }
  }

  // One Dijkstra per router over its own group's edges fills its block row.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  blocks_.assign(entries, 0.0f);
  std::vector<double> dist;
  using Item = std::pair<double, int>;  // (distance, router)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  for (int s = 0; s < n; ++s) {
    const Router& src = routers_[static_cast<std::size_t>(s)];
    dist.assign(size[src.group], kInf);
    dist[src.col] = 0;
    queue.emplace(0.0, s);
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[routers_[static_cast<std::size_t>(u)].col]) continue;
      for (const auto& e : topo.edges(u)) {
        const Router& to = routers_[static_cast<std::size_t>(e.to)];
        if (to.group != src.group) continue;
        const double nd = d + e.ms;
        if (nd < dist[to.col]) {
          dist[to.col] = nd;
          queue.emplace(nd, e.to);
        }
      }
    }
    for (std::size_t v = 0; v < dist.size(); ++v) {
      if (!(dist[v] < kInf)) {
        throw std::logic_error("LatencyOracle: topology is disconnected");
      }
      blocks_[src.row + v] = static_cast<float>(dist[v]);
    }
  }

  for (Router& rec : routers_) {
    if (rec.group == 0) {
      rec.gateway = rec.col;
      continue;
    }
    const Gateway& gw = gateways[rec.group];
    const Router& member = routers_[static_cast<std::size_t>(gw.member)];
    rec.gateway = routers_[static_cast<std::size_t>(gw.transit)].col;
    rec.up = static_cast<float>(blocks_[rec.row + member.col] + gw.ms);
  }
  mem_.reset("topology.latency_matrix", telemetry::vector_bytes(routers_) +
                                            telemetry::vector_bytes(blocks_));
}

}  // namespace canon
