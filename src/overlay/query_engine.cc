#include "overlay/query_engine.h"

#include "common/parallel.h"
#include "common/zipf.h"

namespace canon {

std::vector<Query> generate_workload(
    std::size_t count, const Rng& base,
    const std::function<Query(Rng&, std::size_t)>& make) {
  std::vector<Query> out(count);
  // Query i is a pure function of base.fork(i), so the workload is
  // thread-invariant.
  parallel_for(count, kQueryGrain,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   Rng q = base.fork(i);
                   out[i] = make(q, i);
                 }
               });
  return out;
}

std::vector<Query> uniform_workload(const OverlayNetwork& net,
                                    std::size_t count, const Rng& base) {
  const std::size_t n = net.size();
  const IdSpace& space = net.space();
  return generate_workload(count, base, [&](Rng& rng, std::size_t) {
    Query q;
    q.from = static_cast<NodeIndex>(rng.uniform(n));
    q.key = space.wrap(rng());
    return q;
  });
}

std::vector<Query> zipf_workload(const OverlayNetwork& net, std::size_t count,
                                 const Rng& base, double theta) {
  const std::size_t n = net.size();
  const IdSpace& space = net.space();
  // The pool is drawn serially from a dedicated fork so its contents don't
  // depend on count or thread count; rank r holds the r-th draw.
  Rng pool_rng = base.fork(0x6b657973ULL);  // "keys"
  std::vector<NodeId> pool(n);
  for (NodeId& key : pool) key = space.wrap(pool_rng());
  const ZipfSampler zipf(n, theta);
  return generate_workload(count, base, [&](Rng& rng, std::size_t) {
    Query q;
    q.from = static_cast<NodeIndex>(rng.uniform(n));
    q.key = pool[zipf.sample(rng)];
    return q;
  });
}

void QueryStats::merge(const QueryStats& other) {
  hops.merge(other.hops);
  cost.merge(other.cost);
  if (other.hops_by_level.size() > hops_by_level.size()) {
    hops_by_level.resize(other.hops_by_level.size(), 0);
  }
  for (std::size_t l = 0; l < other.hops_by_level.size(); ++l) {
    hops_by_level[l] += other.hops_by_level[l];
  }
  queries += other.queries;
  failures += other.failures;
  hop_guard_exits += other.hop_guard_exits;
  total_hops += other.total_hops;
}

double ResilientStats::success_rate() const {
  return base.queries == 0
             ? 1.0
             : static_cast<double>(base.ok()) /
                   static_cast<double>(base.queries);
}

double ResilientStats::availability() const {
  const std::uint64_t total = base.queries + skipped_dead_source;
  return total == 0
             ? 1.0
             : static_cast<double>(base.ok()) / static_cast<double>(total);
}

void ResilientStats::add(const ResilientProbe& rp) {
  ++base.queries;
  base.total_hops += static_cast<std::uint64_t>(rp.hops);
  if (rp.ok) {
    base.hops.add(rp.hops);
  } else {
    ++base.failures;
  }
  if (rp.hop_guard) ++base.hop_guard_exits;
  retries += static_cast<std::uint64_t>(rp.retries);
  fallback_hops += static_cast<std::uint64_t>(rp.fallback_hops);
}

void ResilientStats::merge(const ResilientStats& other) {
  base.merge(other.base);
  skipped_dead_source += other.skipped_dead_source;
  retries += other.retries;
  fallback_hops += other.fallback_hops;
}

QueryEngine::QueryEngine(const OverlayNetwork& net)
    : net_(&net),
      batches_counter_(telemetry::maybe_counter("query_engine.batches")),
      queries_counter_(telemetry::maybe_counter("query_engine.queries")),
      hops_counter_(telemetry::maybe_counter("query_engine.hops")),
      failures_counter_(telemetry::maybe_counter("query_engine.failures")) {}

void QueryEngine::observe_route(
    const Query& q, const Route& route, const LinkTable& links,
    QueryStats& stats, telemetry::LoadAccountant::Shard* load_shard) const {
  if (load_shard) load_->observe(route.path, route.ok, q.key, *load_shard);
  if (level_tracking_) {
    for (std::size_t j = 0; j + 1 < route.path.size(); ++j) {
      const int level = net_->lca_level(route.path[j], route.path[j + 1]);
      if (level < 0) continue;
      if (static_cast<std::size_t>(level) >= stats.hops_by_level.size()) {
        stats.hops_by_level.resize(static_cast<std::size_t>(level) + 1, 0);
      }
      ++stats.hops_by_level[static_cast<std::size_t>(level)];
    }
  }
  if (cost_ && route.ok) stats.cost.add(path_cost(route, cost_));
  if (sink_) {
    const std::uint64_t trace_id = sink_->begin_lookup(q.from, q.key);
    for (std::size_t j = 0; j + 1 < route.path.size(); ++j) {
      telemetry::HopRecord hop;
      hop.lookup = trace_id;
      hop.from = route.path[j];
      hop.to = route.path[j + 1];
      hop.hop_index = static_cast<int>(j);
      hop.level = net_->lca_level(route.path[j], route.path[j + 1]);
      hop.candidates =
          static_cast<std::uint32_t>(links.neighbors(route.path[j]).size());
      sink_->on_hop(hop);
    }
    sink_->end_lookup(trace_id, route.ok, route.terminal());
  }
}

void QueryEngine::flush_batch_counters(const QueryStats& stats) const {
  // Telemetry flush: aggregate only, on the calling thread, after the
  // barrier — no Counter is ever touched inside a shard.
  if (batches_counter_) batches_counter_->inc();
  if (queries_counter_) queries_counter_->inc(stats.queries);
  if (hops_counter_) hops_counter_->inc(stats.total_hops);
  if (failures_counter_) failures_counter_->inc(stats.failures);
  if (stats.hop_guard_exits > 0) {
    if (telemetry::Counter* c =
            telemetry::maybe_counter("query_engine.hop_guard_exits")) {
      c->inc(stats.hop_guard_exits);
    }
  }
}

void QueryEngine::flush_resilient_counters(const ResilientStats& stats) const {
  const auto bump = [](const char* name, std::uint64_t value) {
    if (telemetry::Counter* c = telemetry::maybe_counter(name)) c->inc(value);
  };
  bump("query_engine.resilient_batches", 1);
  bump("query_engine.resilient_retries", stats.retries);
  bump("query_engine.resilient_fallback_hops", stats.fallback_hops);
  bump("query_engine.resilient_skipped_sources", stats.skipped_dead_source);
}

}  // namespace canon
