// Mega-scale crescendo: streamed construction and batch lookups at
// 10^6..10^7 nodes, with the resource observatory attached
// (docs/PERFORMANCE.md "Scaling to millions of nodes", docs/TELEMETRY.md
// §10 "Resource observatory").
//
// Each row builds a fresh population of n nodes (SoA metadata), builds
// the Crescendo link table shard by shard (build_crescendo), and
// fires --lookups uniform queries through the batch QueryEngine's probe
// hot path. A fresh MemoryAccountant is installed per row, so every row
// carries a per-subsystem byte ledger; current_rss_mb() is sampled at
// every phase boundary and per streamed-build shard into an RSS timeline.
// Reported per row:
//
//   real_time        link-construction wall clock in ms (the gated metric
//                    — tools/compare_bench.py matches micro-bench reports
//                    by "name" and gates "real_time")
//   build_s          the same wall clock in seconds
//   pop_s            population generation (IDs + hierarchy + sort)
//   peak_rss_mb      process high-water RSS after the row (monotone over
//                    the process lifetime)
//   current_rss_mb   point-in-time RSS after the row (VmRSS) — the pair
//                    makes each row self-describing; no read-order caveat
//   links            total directed links
//   lookups_per_sec  probe-mode throughput through the interleaved batch
//                    kernel (the configured --batch-width)
//   scalar_lookups_per_sec  the same workload through the scalar per-query
//                    probe loop (batch width 0) — the MLP baseline
//   batch_speedup    lookups_per_sec / scalar_lookups_per_sec (the row
//                    self-checks that both runs produced bit-identical
//                    stats before reporting either)
//   mean_hops        mean hop count over OK lookups
//
// Crescendo row names are "crescendo/<n>"; sizes quadruple from
// --min-nodes to --max-nodes. A final "physical/<routers>" row covers a
// transit-stub topology of 5160 routers, its latency oracle (built in
// latency_build_s), and a physical population of --physical-nodes hosts
// (0 disables the row). Per-subsystem peak bytes ride in
// "mem/<row>/<tag>" series rows (gated in CI via compare_bench.py
// --metric=peak_bytes) and the full ledgers plus the RSS timeline land in
// metrics.memory. Attributed tags and bytes are byte-identical at any
// --threads; only wall clocks and measured RSS move (check_json_schema.py
// --threads-invariant strips exactly those).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench/bench_util.h"
#include "canon/crescendo.h"
#include "common/table.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/mem_stats.h"
#include "topology/physical_network.h"

using namespace canon;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wall-clock RSS timeline over the whole bench run: one {t_ms, rss_mb}
/// row per 100 ms window that has a sample, holding the window's last
/// sample. Build workers sample concurrently, so samples funnel through a
/// mutex and are stamped under it, which keeps the rows in time order.
class RssTimeline {
 public:
  void sample() {
    const double mb = bench::current_rss_mb();
    std::lock_guard<std::mutex> lock(mu_);
    const auto window =
        static_cast<std::uint64_t>(seconds_since(epoch_) * 1e3 / kWindowMs);
    if (rows_.empty() || rows_.back().window != window) {
      rows_.push_back({window, mb});
    } else {
      rows_.back().rss_mb = mb;
    }
  }
  telemetry::JsonValue to_json() {
    std::lock_guard<std::mutex> lock(mu_);
    telemetry::JsonValue out = telemetry::JsonValue::array();
    for (const Row& r : rows_) {
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("t_ms",
              telemetry::JsonValue(static_cast<double>(r.window) * kWindowMs));
      row.set("rss_mb", telemetry::JsonValue(r.rss_mb));
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  static constexpr double kWindowMs = 100.0;
  struct Row {
    std::uint64_t window;
    double rss_mb;
  };
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::mutex mu_;
  std::vector<Row> rows_;
};

/// One row's ledger + measured-RSS report under metrics.memory, plus the
/// "mem/<row>/<tag>" series rows the CI byte gate matches by name.
void emit_memory_report(bench::BenchRun& run, const std::string& row_name,
                        const telemetry::MemoryAccountant& acct,
                        telemetry::JsonValue measured,
                        telemetry::JsonValue& memory_section) {
  telemetry::JsonValue entry = acct.to_json();
  entry.set("measured", std::move(measured));
  memory_section.set(row_name, std::move(entry));
  for (const auto& [tag, stats] : acct.tags()) {
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("name", telemetry::JsonValue("mem/" + row_name + "/" + tag));
    row.set("peak_bytes", telemetry::JsonValue(stats.peak));
    row.set("current_bytes", telemetry::JsonValue(stats.current));
    run.report().add_row(std::move(row));
  }
}

/// One row's lookup phase, run twice over the same workload: first the
/// scalar per-query probe loop (batch width forced to 0 — the
/// memory-level-parallelism baseline), then the interleaved batch kernel
/// at the configured --batch-width. The two runs must produce
/// bit-identical stats (the kernels change when memory is touched, never
/// which neighbor wins); their wall clocks become the row's
/// scalar/batch throughput columns.
struct QueryPhase {
  QueryStats stats;
  double lookups_per_sec = 0;         // batch kernel throughput
  double scalar_lookups_per_sec = 0;  // width-0 reference loop
  double batch_speedup = 0;
};

bool run_query_phase(const QueryEngine& engine, const RingRouter& router,
                     const std::vector<Query>& queries,
                     RssTimeline& timeline, QueryPhase& out) {
  const std::size_t lookups = queries.size();
  const int width = probe_batch_width();

  set_probe_batch_width(0);
  auto start = std::chrono::steady_clock::now();
  const QueryStats scalar_stats = engine.run(queries, router);
  const double scalar_s = seconds_since(start);
  set_probe_batch_width(width);
  timeline.sample();

  start = std::chrono::steady_clock::now();
  out.stats = engine.run(queries, router);
  const double batch_s = seconds_since(start);
  timeline.sample();

  if (out.stats.queries != scalar_stats.queries ||
      out.stats.failures != scalar_stats.failures ||
      out.stats.total_hops != scalar_stats.total_hops ||
      out.stats.hops.count() != scalar_stats.hops.count() ||
      out.stats.hops.mean() != scalar_stats.hops.mean()) {
    std::cerr << "batch kernel diverged from the scalar probe loop\n";
    return false;
  }
  out.lookups_per_sec =
      batch_s > 0 ? static_cast<double>(lookups) / batch_s : 0.0;
  out.scalar_lookups_per_sec =
      scalar_s > 0 ? static_cast<double>(lookups) / scalar_s : 0.0;
  out.batch_speedup = batch_s > 0 ? scalar_s / batch_s : 0.0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "bench_scale");
  const std::uint64_t min_n = run.u64("min-nodes", std::uint64_t{1} << 18, 1);
  const std::uint64_t max_n = run.u64("max-nodes", std::uint64_t{1} << 20);
  const std::uint64_t lookups = run.u64("lookups", 100000, 1);
  const int levels = static_cast<int>(run.u64("levels", 3, 1));
  const std::uint64_t physical_nodes =
      run.u64("physical-nodes", std::uint64_t{1} << 16);
  run.header("Mega-scale crescendo: streamed build + batch lookups",
             "construction/lookup throughput at 10^6+ nodes "
             "(32-bit hot paths, SoA metadata, streamed CSR, "
             "per-subsystem memory ledger)");

  RssTimeline timeline;
  telemetry::JsonValue memory_section = telemetry::JsonValue::object();

  TextTable table({"row", "pop s", "build s", "RSS MB (peak/now)",
                   "attributed MB", "links", "Mlookups/s", "speedup",
                   "mean hops"});

  for (std::uint64_t n = min_n; n <= max_n; n *= 4) {
    telemetry::MemoryAccountant acct;
    telemetry::MemoryAccountant* prev =
        telemetry::install_mem_accountant(&acct);
    timeline.sample();
    const double start_mb = bench::current_rss_mb();

    auto start = std::chrono::steady_clock::now();
    const auto net = bench::bench_population(n, levels, run.seed);
    const double pop_s = seconds_since(start);
    timeline.sample();
    const double after_pop_mb = bench::current_rss_mb();

    start = std::chrono::steady_clock::now();
    const auto links = build_crescendo(
        net, [&timeline](std::size_t, std::size_t) { timeline.sample(); });
    const double build_s = seconds_since(start);
    timeline.sample();
    const double after_build_mb = bench::current_rss_mb();

    const RingRouter router(net, links);
    QueryEngine engine(net);
    const auto queries = uniform_workload(net, lookups, Rng(run.seed));
    QueryPhase q;
    if (!run_query_phase(engine, router, queries, timeline, q)) return 1;
    const QueryStats& stats = q.stats;
    if (stats.failures != 0) {
      std::cerr << "routing failure (broken structure)\n";
      return 1;
    }
    const double peak_mb = bench::peak_rss_mb();
    const double now_mb = bench::current_rss_mb();
    const double attributed_mb =
        static_cast<double>(acct.current_bytes()) / (1024.0 * 1024.0);

    const std::string row_name = "crescendo/" + std::to_string(n);
    table.add_row({row_name, TextTable::num(pop_s, 2),
                   TextTable::num(build_s, 2),
                   TextTable::num(peak_mb, 0) + "/" +
                       TextTable::num(now_mb, 0),
                   TextTable::num(attributed_mb, 0),
                   TextTable::num(links.total_links()),
                   TextTable::num(q.lookups_per_sec / 1e6, 2),
                   TextTable::num(q.batch_speedup, 2),
                   TextTable::num(stats.hops.mean(), 2)});
    if (run.json_enabled()) {
      run.metrics().gauge("build.peak_rss_mb").set(peak_mb);
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("name", telemetry::JsonValue(row_name));
      row.set("nodes", telemetry::JsonValue(n));
      row.set("levels", telemetry::JsonValue(
                            static_cast<std::int64_t>(levels)));
      row.set("real_time", telemetry::JsonValue(build_s * 1e3));
      row.set("build_s", telemetry::JsonValue(build_s));
      row.set("pop_s", telemetry::JsonValue(pop_s));
      row.set("peak_rss_mb", telemetry::JsonValue(peak_mb));
      row.set("current_rss_mb", telemetry::JsonValue(now_mb));
      row.set("links", telemetry::JsonValue(links.total_links()));
      row.set("lookups", telemetry::JsonValue(lookups));
      row.set("lookups_per_sec", telemetry::JsonValue(q.lookups_per_sec));
      row.set("scalar_lookups_per_sec",
              telemetry::JsonValue(q.scalar_lookups_per_sec));
      row.set("batch_speedup", telemetry::JsonValue(q.batch_speedup));
      row.set("mean_hops", telemetry::JsonValue(stats.hops.mean()));
      run.report().add_row(std::move(row));

      telemetry::JsonValue measured = telemetry::JsonValue::object();
      measured.set("start_mb", telemetry::JsonValue(start_mb));
      measured.set("after_pop_mb", telemetry::JsonValue(after_pop_mb));
      measured.set("after_build_mb", telemetry::JsonValue(after_build_mb));
      measured.set("after_queries_mb", telemetry::JsonValue(now_mb));
      measured.set("peak_mb", telemetry::JsonValue(peak_mb));
      emit_memory_report(run, row_name, acct, std::move(measured),
                         memory_section);
    }
    telemetry::install_mem_accountant(prev);
  }

  // Physical row: a transit-stub topology, its latency oracle, and a
  // crescendo build over a physical population.
  if (physical_nodes > 0) {
    telemetry::MemoryAccountant acct;
    telemetry::MemoryAccountant* prev =
        telemetry::install_mem_accountant(&acct);
    timeline.sample();
    const double start_mb = bench::current_rss_mb();

    TransitStubConfig topo_config;  // 40 transit + 5120 stub = 5160 routers
    topo_config.stub_domains_per_transit = 8;
    topo_config.stubs_per_domain = 16;

    auto start = std::chrono::steady_clock::now();
    Rng rng(run.seed);
    const PhysicalNetwork phys(topo_config, rng);
    const double latency_build_s = seconds_since(start);
    timeline.sample();

    start = std::chrono::steady_clock::now();
    const auto net =
        make_physical_population(physical_nodes, phys, 32, rng);
    const double pop_s = seconds_since(start);
    timeline.sample();
    const double after_pop_mb = bench::current_rss_mb();

    start = std::chrono::steady_clock::now();
    const auto links = build_crescendo(
        net, [&timeline](std::size_t, std::size_t) { timeline.sample(); });
    const double build_s = seconds_since(start);
    timeline.sample();
    const double after_build_mb = bench::current_rss_mb();

    const RingRouter router(net, links);
    QueryEngine engine(net);
    const auto queries = uniform_workload(net, lookups, Rng(run.seed));
    QueryPhase q;
    if (!run_query_phase(engine, router, queries, timeline, q)) return 1;
    const QueryStats& stats = q.stats;
    if (stats.failures != 0) {
      std::cerr << "routing failure (broken structure)\n";
      return 1;
    }
    const double peak_mb = bench::peak_rss_mb();
    const double now_mb = bench::current_rss_mb();
    const double attributed_mb =
        static_cast<double>(acct.current_bytes()) / (1024.0 * 1024.0);
    const int routers = phys.topology().router_count();

    const std::string row_name = "physical/" + std::to_string(routers);
    table.add_row({row_name, TextTable::num(pop_s, 2),
                   TextTable::num(build_s, 2),
                   TextTable::num(peak_mb, 0) + "/" +
                       TextTable::num(now_mb, 0),
                   TextTable::num(attributed_mb, 0),
                   TextTable::num(links.total_links()),
                   TextTable::num(q.lookups_per_sec / 1e6, 2),
                   TextTable::num(q.batch_speedup, 2),
                   TextTable::num(stats.hops.mean(), 2)});
    if (run.json_enabled()) {
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("name", telemetry::JsonValue(row_name));
      row.set("nodes", telemetry::JsonValue(physical_nodes));
      row.set("routers", telemetry::JsonValue(
                             static_cast<std::int64_t>(routers)));
      row.set("real_time", telemetry::JsonValue(build_s * 1e3));
      row.set("build_s", telemetry::JsonValue(build_s));
      row.set("pop_s", telemetry::JsonValue(pop_s));
      row.set("latency_build_s", telemetry::JsonValue(latency_build_s));
      row.set("peak_rss_mb", telemetry::JsonValue(peak_mb));
      row.set("current_rss_mb", telemetry::JsonValue(now_mb));
      row.set("links", telemetry::JsonValue(links.total_links()));
      row.set("lookups", telemetry::JsonValue(lookups));
      row.set("lookups_per_sec", telemetry::JsonValue(q.lookups_per_sec));
      row.set("scalar_lookups_per_sec",
              telemetry::JsonValue(q.scalar_lookups_per_sec));
      row.set("batch_speedup", telemetry::JsonValue(q.batch_speedup));
      row.set("mean_hops", telemetry::JsonValue(stats.hops.mean()));
      run.report().add_row(std::move(row));

      telemetry::JsonValue measured = telemetry::JsonValue::object();
      measured.set("start_mb", telemetry::JsonValue(start_mb));
      measured.set("after_pop_mb", telemetry::JsonValue(after_pop_mb));
      measured.set("after_build_mb", telemetry::JsonValue(after_build_mb));
      measured.set("after_queries_mb", telemetry::JsonValue(now_mb));
      measured.set("peak_mb", telemetry::JsonValue(peak_mb));
      emit_memory_report(run, row_name, acct, std::move(measured),
                         memory_section);
    }
    telemetry::install_mem_accountant(prev);
  }

  if (run.json_enabled()) {
    memory_section.set("rss_timeline", timeline.to_json());
    run.report().set_metric("memory", std::move(memory_section));
  }

  table.print(std::cout);
  std::cout << "\n(RSS MB column is peak/current; per-subsystem bytes in "
               "the JSON report's metrics.memory section)\n";
  return run.finish();
}
