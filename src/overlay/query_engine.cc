#include "overlay/query_engine.h"

#include <algorithm>
#include <atomic>

#include "common/parallel.h"
#include "common/zipf.h"
#include "telemetry/mem_stats.h"

namespace canon {

namespace {

// Runtime shard size (see query_grain() in the header). Relaxed atomics:
// set at startup or between batches, never mid-batch.
std::atomic<std::size_t> g_query_grain{kQueryGrain};

}  // namespace

std::size_t query_grain() {
  return g_query_grain.load(std::memory_order_relaxed);
}

void set_query_grain(std::size_t grain) {
  g_query_grain.store(grain == 0 ? kQueryGrain : grain,
                      std::memory_order_relaxed);
}

void RunOptions::apply() const {
  set_parallel_threads(threads);
  set_query_grain(grain);
  set_probe_batch_width(batch_width);
}

std::vector<Query> generate_workload(
    std::size_t count, const Rng& base,
    const std::function<Query(Rng&, std::size_t)>& make) {
  std::vector<Query> out(count);
  // Query i is a pure function of base.fork(i): any grain partitions the
  // same per-index work, so the workload is grain- and thread-invariant.
  parallel_for(count, query_grain(),
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
                                 const Rng& base, double theta,
                                 std::size_t key_pool) {
  const std::size_t n = net.size();
  const IdSpace& space = net.space();
  if (key_pool == 0) key_pool = n;
  // The pool is drawn serially from a dedicated fork so its contents don't
  // depend on count or thread count; rank r holds the r-th draw.
  Rng pool_rng = base.fork(0x6b657973ULL);  // "keys"
  std::vector<NodeId> pool(key_pool);
  for (NodeId& key : pool) key = space.wrap(pool_rng());
  const ZipfSampler zipf(key_pool, theta);
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

QueryStats QueryEngine::run_batch(std::span<const Query> queries,
                                  const RouteIntoFn& route_into,
                                  const ProbeFn& probe,
                                  std::vector<RouteProbe>* per_query,
                                  const ProbeBatchFn& probe_batch) const {
  const std::size_t n = queries.size();
  const std::size_t grain = query_grain();
  const std::size_t shards = (n + grain - 1) / grain;
  if (per_query) per_query->assign(n, RouteProbe{});

  // Probe mode: terminal-only routing, no path materialized anywhere.
  // Anything that must see the hop-by-hop path disables it.
  const bool use_probe =
      !cost_ && !level_tracking_ && sink_ == nullptr && load_ == nullptr;

  std::vector<QueryStats> per_shard(shards);
  std::vector<telemetry::LoadAccountant::Shard> load_shards(load_ ? shards
                                                                  : 0);
  // Per-shard scratch footprint, recorded by the worker that ran the
  // shard (the shard's routes alone determine the final capacity) and
  // charged to the memory accountant on the calling thread after the
  // barrier, in fixed shard order.
  std::vector<std::uint64_t> scratch_bytes(
      telemetry::mem_accountant() ? shards : 0);
  const auto run_shard = [&](std::size_t s) {
    QueryStats& stats = per_shard[s];
    telemetry::LoadAccountant::Shard* load_shard =
        load_ ? &load_shards[s] : nullptr;
    Route scratch;  // one buffer per shard, capacity reused across queries
    const std::size_t begin = s * grain;
    const std::size_t end = std::min(n, begin + grain);
    // The interleaved kernel routes the whole shard up front; the stats
    // loop below then drains its results in query order, so every
    // accumulation (and with it every figure) is identical to the
    // per-query probe path.
    std::vector<RouteProbe> batch_out;
    const bool use_batch = use_probe && probe_batch != nullptr;
    if (use_batch) {
      batch_out.resize(end - begin);
      probe_batch(queries.subspan(begin, end - begin), batch_out);
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Query& q = queries[i];
      RouteProbe p;
      if (use_batch) {
        p = batch_out[i - begin];
      } else if (use_probe) {
        p = probe(q.from, q.key);
      } else {
        route_into(q.from, q.key, scratch);
        p = RouteProbe{scratch.terminal(), scratch.hops(), scratch.ok,
                       scratch.hop_guard};
        observe_route(q, scratch, stats, load_shard);
      }
      ++stats.queries;
      stats.total_hops += static_cast<std::uint64_t>(p.hops);
      if (p.ok) {
        stats.hops.add(p.hops);
      } else {
        ++stats.failures;
      }
      if (p.hop_guard) ++stats.hop_guard_exits;
      if (per_query) (*per_query)[i] = p;
    }
    if (!scratch_bytes.empty()) {
      scratch_bytes[s] = telemetry::vector_bytes(scratch.path) +
                         telemetry::vector_bytes(batch_out);
    }
  };

  if (sink_) {
    // A sink observes one global event stream: keep workload order.
    for (std::size_t s = 0; s < shards; ++s) run_shard(s);
  } else {
    // grain 1: shard s of the index range IS query-shard s, so the
    // partition (and with it every accumulation order below) is the same
    // at every thread count.
    parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) run_shard(s);
    });
  }

  QueryStats out;
  for (const QueryStats& s : per_shard) out.merge(s);
  if (load_) {
    for (const auto& s : load_shards) load_->merge(s);
  }
  if (!scratch_bytes.empty()) {
    // Charge every shard's scratch together, then release: the tag's peak
    // records the concurrency-equivalent footprint (all shards resident at
    // once), which is what the figure would be at maximum parallelism —
    // and is a pure function of the shard partition, so byte-identical at
    // any --threads.
    telemetry::MemScope scope("query.scratch");
    for (const std::uint64_t bytes : scratch_bytes) scope.add(bytes);
  }
  flush_batch_counters(out);
  return out;
}

void QueryEngine::observe_route(
    const Query& q, const Route& route, QueryStats& stats,
    telemetry::LoadAccountant::Shard* load_shard) const {
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
