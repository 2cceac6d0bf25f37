// Tests for the telemetry layer: metrics registry lookup and no-op paths,
// log-scale histogram bucket edges, JSON writer escaping and round-trip,
// the BenchReport schema, and route tracing with per-level hop breakdowns
// on a small deterministic hierarchy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "canon/crescendo.h"
#include "common/rng.h"
#include "overlay/message_sim.h"
#include "overlay/overlay_network.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/scoped_timer.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace canon {
namespace {

using telemetry::JsonValue;
using telemetry::LatencyHistogram;
using telemetry::MetricsRegistry;

/// Restores the previously installed registry on scope exit so tests
/// cannot leak a registry into each other.
class RegistryGuard {
 public:
  explicit RegistryGuard(MetricsRegistry* r)
      : prev_(telemetry::install_registry(r)) {}
  ~RegistryGuard() { telemetry::install_registry(prev_); }

 private:
  MetricsRegistry* prev_;
};

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, NoRegistryMeansNullInstruments) {
  ASSERT_EQ(telemetry::registry(), nullptr);
  EXPECT_EQ(telemetry::maybe_counter("x"), nullptr);
  EXPECT_EQ(telemetry::maybe_gauge("x"), nullptr);
  EXPECT_EQ(telemetry::maybe_histogram("x"), nullptr);
}

TEST(MetricsRegistry, LookupIsStableAndNamed) {
  MetricsRegistry reg;
  RegistryGuard guard(&reg);
  telemetry::Counter* c = telemetry::maybe_counter("hops");
  ASSERT_NE(c, nullptr);
  c->inc();
  c->inc(4);
  // Same name resolves to the same instrument.
  EXPECT_EQ(telemetry::maybe_counter("hops"), c);
  EXPECT_EQ(reg.counter("hops").value(), 5u);
  // Distinct names are distinct instruments.
  EXPECT_NE(telemetry::maybe_counter("other"), c);

  reg.gauge("size").set(42.5);
  EXPECT_DOUBLE_EQ(reg.gauge("size").value(), 42.5);
  EXPECT_EQ(reg.counters().size(), 2u);
  EXPECT_EQ(reg.gauges().size(), 1u);
}

TEST(MetricsRegistry, InstallReturnsPrevious) {
  MetricsRegistry a;
  MetricsRegistry b;
  RegistryGuard guard(&a);
  EXPECT_EQ(telemetry::install_registry(&b), &a);
  EXPECT_EQ(telemetry::install_registry(&a), &b);
}

// --------------------------------------------------------------- histogram

TEST(LatencyHistogram, BucketEdges) {
  // Bucket 0 is exact zero; bucket i (i >= 1) covers [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucket_index(1024), 11);
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);

  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_floor_ns(11), 1024u);
  // Floors and indices agree at every edge.
  for (int i = 1; i < LatencyHistogram::kBuckets - 1; ++i) {
    const std::uint64_t floor = LatencyHistogram::bucket_floor_ns(i);
    EXPECT_EQ(LatencyHistogram::bucket_index(floor), i);
    EXPECT_EQ(LatencyHistogram::bucket_index(floor - 1), i - 1);
  }
}

TEST(LatencyHistogram, RecordAndSummarize) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 0);
  EXPECT_DOUBLE_EQ(h.quantile_upper_ms(0.5), 0);

  h.record_ns(1000);   // bucket 10
  h.record_ns(1000);
  h.record_ns(3000);   // bucket 12
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(10), 2u);
  EXPECT_EQ(h.bucket_count(12), 1u);
  EXPECT_NEAR(h.mean_ms(), 5000.0 / 3 / 1e6, 1e-12);
  EXPECT_NEAR(h.min_ms(), 1e-3, 1e-12);
  EXPECT_NEAR(h.max_ms(), 3e-3, 1e-12);
  // Median falls in bucket 10 = [512, 1024)ns; upper edge is 1024ns.
  EXPECT_NEAR(h.quantile_upper_ms(0.5), 1024.0 / 1e6, 1e-12);
  // The top quantile clamps to the observed max.
  EXPECT_NEAR(h.quantile_upper_ms(1.0), 3e-3, 1e-12);

  LatencyHistogram other;
  other.record_ns(10);
  other.merge(h);
  EXPECT_EQ(other.count(), 4u);
  EXPECT_NEAR(other.max_ms(), 3e-3, 1e-12);
  EXPECT_NEAR(other.min_ms(), 10.0 / 1e6, 1e-12);
}

TEST(ScopedTimer, RecordsIntoHistogram) {
  LatencyHistogram h;
  {
    telemetry::ScopedTimer t(&h);
    EXPECT_GE(t.elapsed_ms(), 0);
  }
  EXPECT_EQ(h.count(), 1u);

  // stop() records exactly once.
  telemetry::ScopedTimer t(&h);
  t.stop();
  t.stop();
  EXPECT_EQ(h.count(), 2u);

  // Null histogram and no registry are both silent no-ops.
  telemetry::ScopedTimer null_timer(nullptr);
  telemetry::ScopedTimer named_timer("nobody.listens");
  (void)null_timer;
  (void)named_timer;
}

// -------------------------------------------------------------------- JSON

TEST(Json, EscapingRoundTrip) {
  const std::string nasty = "quote:\" backslash:\\ newline:\n tab:\t "
                            "control:\x01 high:\xC3\xA9";
  const JsonValue v(nasty);
  const std::string text = v.dump();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_EQ(JsonValue::parse(text).as_string(), nasty);
}

TEST(Json, NumbersAndLiterals) {
  EXPECT_EQ(JsonValue(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(JsonValue(std::uint64_t{1} << 40).dump(), "1099511627776");
  EXPECT_EQ(JsonValue(2.0).dump(), "2");  // integral doubles stay integral
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_NEAR(JsonValue::parse("2.5e3").as_double(), 2500.0, 1e-9);
  EXPECT_EQ(JsonValue::parse("-12").as_int(), -12);
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");
}

TEST(Json, StructureRoundTripPreservesOrderAndValues) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", JsonValue(1));
  obj.set("alpha", JsonValue("two"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(3.5));
  arr.push_back(JsonValue());
  arr.push_back(JsonValue(false));
  obj.set("list", std::move(arr));
  obj.set("zebra", JsonValue(9));  // replace keeps position

  const std::string text = obj.dump(2);
  const JsonValue back = JsonValue::parse(text);
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.members()[0].first, "zebra");  // insertion order kept
  EXPECT_EQ(back.members()[1].first, "alpha");
  EXPECT_EQ(back.get("zebra")->as_int(), 9);
  EXPECT_EQ(back.get("alpha")->as_string(), "two");
  ASSERT_EQ(back.get("list")->size(), 3u);
  EXPECT_DOUBLE_EQ(back.get("list")->items()[0].as_double(), 3.5);
  EXPECT_TRUE(back.get("list")->items()[1].is_null());
  EXPECT_FALSE(back.get("list")->items()[2].as_bool());
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]2"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

// ------------------------------------------------------------ BenchReport

TEST(BenchReport, SchemaRoundTripThroughFile) {
  MetricsRegistry reg;
  reg.counter("router.hops").inc(123);
  reg.gauge("net.size").set(1024);
  reg.histogram("build_ms").record_ms(1.5);

  telemetry::BenchReport report("unit_test_bench", 77);
  report.set_param("nodes", JsonValue(std::uint64_t{1024}));
  report.set_param("label", JsonValue("a \"quoted\" label"));
  JsonValue row = JsonValue::object();
  row.set("x", JsonValue(1));
  report.add_row(std::move(row));
  report.merge_registry(reg);

  const std::string path = ::testing::TempDir() + "telemetry_report.json";
  report.write_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  std::remove(path.c_str());

  // The stable top-level schema: all four keys always present.
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.get("bench"), nullptr);
  ASSERT_NE(doc.get("seed"), nullptr);
  ASSERT_NE(doc.get("params"), nullptr);
  ASSERT_NE(doc.get("metrics"), nullptr);
  ASSERT_NE(doc.get("series"), nullptr);
  EXPECT_EQ(doc.get("bench")->as_string(), "unit_test_bench");
  EXPECT_EQ(doc.get("seed")->as_int(), 77);
  EXPECT_EQ(doc.get("params")->get("nodes")->as_int(), 1024);
  EXPECT_EQ(doc.get("params")->get("label")->as_string(),
            "a \"quoted\" label");
  EXPECT_EQ(doc.get("series")->items()[0].get("x")->as_int(), 1);
  const JsonValue* metrics = doc.get("metrics");
  EXPECT_EQ(metrics->get("counters")->get("router.hops")->as_int(), 123);
  EXPECT_DOUBLE_EQ(metrics->get("gauges")->get("net.size")->as_double(), 1024);
  const JsonValue* hist = metrics->get("histograms")->get("build_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("count")->as_int(), 1);
  EXPECT_NEAR(hist->get("mean_ms")->as_double(), 1.5, 0.5);
}

// ----------------------------------------------------------- route traces

/// Two-level hierarchy: two top-level domains with two leaf domains each.
OverlayNetwork small_hierarchy() {
  std::vector<OverlayNode> nodes;
  NodeId id = 1;
  for (std::uint16_t top = 0; top < 2; ++top) {
    for (std::uint16_t leaf = 0; leaf < 2; ++leaf) {
      for (int i = 0; i < 8; ++i) {
        nodes.push_back({id, DomainPath({top, leaf}), -1});
        id += 7;  // deterministic spread over the 8-bit space
      }
    }
  }
  return OverlayNetwork(IdSpace(8), std::move(nodes));
}

TEST(RouteTrace, RingRouterPerLevelHopsSumToTotal) {
  const auto net = small_hierarchy();
  const auto links = build_crescendo(net);
  RingRouter router(net, links);
  telemetry::RecordingTraceSink sink;
  router.set_trace(&sink);

  std::uint64_t expected_hops = 0;
  for (NodeId key = 0; key < 256; key += 5) {
    for (const std::uint32_t from : {0u, 7u, 16u, 31u}) {
      const Route r = router.route(from, key);
      ASSERT_TRUE(r.ok);
      expected_hops += static_cast<std::uint64_t>(r.hops());
    }
  }

  EXPECT_EQ(sink.total_hops(), expected_hops);
  const auto by_level = sink.hops_by_level();
  ASSERT_LE(by_level.size(), 3u);  // levels 0..2 in a depth-2 hierarchy
  std::uint64_t sum = 0;
  for (const std::uint64_t c : by_level) sum += c;
  EXPECT_EQ(sum, expected_hops);
  // A hierarchical population routes both across and within domains.
  ASSERT_GE(by_level.size(), 2u);
  EXPECT_GT(by_level[0], 0u);
  EXPECT_GT(by_level.back(), 0u);
}

TEST(RouteTrace, RecordedPathMatchesRoute) {
  const auto net = small_hierarchy();
  const auto links = build_crescendo(net);
  RingRouter router(net, links);
  telemetry::RecordingTraceSink sink;
  router.set_trace(&sink);

  const Route r = router.route(3, 200);
  ASSERT_EQ(sink.lookups().size(), 1u);
  const auto& trace = sink.lookups()[0];
  EXPECT_TRUE(trace.done);
  EXPECT_EQ(trace.ok, r.ok);
  EXPECT_EQ(trace.terminal, r.terminal());
  ASSERT_EQ(trace.hops.size(), static_cast<std::size_t>(r.hops()));
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    EXPECT_EQ(trace.hops[i].from, r.path[i]);
    EXPECT_EQ(trace.hops[i].to, r.path[i + 1]);
    EXPECT_EQ(trace.hops[i].hop_index, static_cast<int>(i));
    EXPECT_EQ(trace.hops[i].level,
              net.lca_level(r.path[i], r.path[i + 1]));
    EXPECT_GT(trace.hops[i].candidates, 0u);
  }

  // Detaching stops event delivery.
  router.set_trace(nullptr);
  router.route(3, 100);
  EXPECT_EQ(sink.lookups().size(), 1u);
}

TEST(RouteTrace, EventSimulatorReportsQueueingDelay) {
  // The discrete-event message simulator at α=1: every traced hop carries
  // the request leg's latency and its wait in the target's inbox.
  const auto net = small_hierarchy();
  const auto links = build_crescendo(net);
  telemetry::RecordingTraceSink sink;
  MessageSimConfig config;
  config.service_ms = 1.0;  // force queueing at shared nodes
  config.inbox_capacity = std::numeric_limits<int>::max();
  MessageSimulator sim(net, links, {}, {}, config);
  SimSinks sinks;
  sinks.trace = &sink;
  sim.attach(sinks);
  for (int i = 0; i < 20; ++i) {
    sim.submit(static_cast<std::uint32_t>(i % net.size()),
               static_cast<NodeId>(200 - i), 0.0);
  }
  sim.run();

  ASSERT_EQ(sink.lookups().size(), 20u);
  std::uint64_t hops = 0;
  for (const auto& lookup : sim.lookups()) {
    EXPECT_TRUE(lookup.ok);
    hops += static_cast<std::uint64_t>(lookup.hops);
  }
  EXPECT_EQ(sink.total_hops(), hops);
  for (const auto& trace : sink.lookups()) {
    EXPECT_TRUE(trace.done);
    for (const auto& hop : trace.hops) {
      EXPECT_GE(hop.queue_ms, 0);
      EXPECT_GT(hop.hop_ms, 0);
    }
  }
  // 20 concurrent lookups over 32 nodes with a 1ms serial cost must queue
  // somewhere.
  EXPECT_GT(sink.mean_queue_ms(), 0);
}

TEST(RouteTrace, MetricsCountersTrackRouting) {
  MetricsRegistry reg;
  RegistryGuard guard(&reg);
  const auto net = small_hierarchy();
  const auto links = build_crescendo(net);
  const RingRouter router(net, links);
  // Batches through the engine use the telemetry-free hot paths: no
  // router counter registers until the first route().
  const QueryEngine engine(net);
  engine.run(uniform_workload(net, 200, Rng(3)), router);
  for (const auto& [name, counter] : reg.counters()) {
    EXPECT_EQ(name.find("_router."), std::string::npos) << name;
  }
  const Route r = router.route(0, 99);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(reg.counter("ring_router.routes").value(), 1u);
  EXPECT_EQ(reg.counter("ring_router.hops").value(),
            static_cast<std::uint64_t>(r.hops()));
  EXPECT_EQ(reg.counter("ring_router.failures").value(), 0u);
  // build_crescendo ran inside the guard, so its phase timer recorded too.
  EXPECT_EQ(reg.histograms().at("build.crescendo_ms").count(), 1u);
}

// ------------------------------------------------------- overflow bucket

TEST(LatencyHistogram, OverflowBucketCountsInsteadOfSaturating) {
  LatencyHistogram h;
  // The largest finite bucket covers [2^(kBuckets-2), 2^(kBuckets-1)).
  const std::uint64_t top_floor =
      LatencyHistogram::bucket_floor_ns(LatencyHistogram::kBuckets - 1);
  h.record_ns(top_floor);          // last real bucket
  h.record_ns(~std::uint64_t{0});  // beyond every bucket edge
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.overflow_count(), 1u);
  // Overflow samples still participate in count/min/max and quantiles
  // fall through to the observed max for them.
  EXPECT_NEAR(h.max_ms(), static_cast<double>(~std::uint64_t{0}) / 1e6, 1e3);
  EXPECT_NEAR(h.quantile_upper_ms(1.0), h.max_ms(), 1e-9);

  LatencyHistogram other;
  other.record_ns(~std::uint64_t{0});
  other.merge(h);
  EXPECT_EQ(other.overflow_count(), 2u);
}

// ----------------------------------------------------------- time series

TEST(TimeSeries, WindowsRatesAndCarryForward) {
  telemetry::TimeSeriesRecorder series(100.0);
  EXPECT_THROW(telemetry::TimeSeriesRecorder(0.0), std::invalid_argument);
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.window_index(-5.0), 0u);  // clamped
  EXPECT_EQ(series.window_index(99.9), 0u);
  EXPECT_EQ(series.window_index(100.0), 1u);

  series.live_nodes(0.0, 64);
  series.lookup_issued(10.0);
  series.lookup_issued(20.0);
  series.lookup_completed(30.0, true, 20.0);
  series.message(40.0, 5.0);
  // Window 1 is silent; window 2 sees a failure.
  series.lookup_completed(250.0, false, 230.0);

  ASSERT_EQ(series.windows().size(), 3u);
  EXPECT_EQ(series.windows()[0].issued, 2u);
  EXPECT_EQ(series.windows()[0].completed, 1u);
  EXPECT_EQ(series.windows()[0].failures, 0u);
  EXPECT_EQ(series.windows()[0].messages, 1u);
  EXPECT_EQ(series.windows()[2].failures, 1u);

  const JsonValue rows = series.to_json();
  ASSERT_EQ(rows.size(), 3u);
  const JsonValue& w0 = rows.items()[0];
  EXPECT_DOUBLE_EQ(w0.get("t_ms")->as_double(), 0.0);
  // 2 issued per 100ms window = 20/s.
  EXPECT_DOUBLE_EQ(w0.get("issued_per_s")->as_double(), 20.0);
  EXPECT_DOUBLE_EQ(w0.get("lookups_per_s")->as_double(), 10.0);
  EXPECT_DOUBLE_EQ(w0.get("mean_latency_ms")->as_double(), 20.0);
  EXPECT_DOUBLE_EQ(w0.get("mean_queue_ms")->as_double(), 5.0);
  EXPECT_DOUBLE_EQ(w0.get("live_nodes")->as_double(), 64.0);
  // The silent window carries the live-node count forward.
  EXPECT_DOUBLE_EQ(rows.items()[1].get("live_nodes")->as_double(), 64.0);
  EXPECT_DOUBLE_EQ(
      rows.items()[2].get("failures_per_s")->as_double(), 10.0);
}

// ------------------------------------------------------ span log + trace

TEST(SpanLog, ScopedTimerFeedsInstalledLog) {
  telemetry::SpanLog log;
  telemetry::SpanLog* prev = telemetry::install_span_log(&log);
  {
    telemetry::ScopedTimer t("build.test_phase_ms");
    (void)t;
  }
  { telemetry::ScopedTimer anonymous(nullptr); (void)anonymous; }
  telemetry::install_span_log(prev);
  { telemetry::ScopedTimer after("build.after_ms"); (void)after; }

  // Only the named timer that ran while the log was installed recorded.
  ASSERT_EQ(log.size(), 1u);
  const auto spans = log.snapshot();
  EXPECT_EQ(spans[0].name, "build.test_phase_ms");
  EXPECT_GE(spans[0].ts_us, 0.0);
  EXPECT_GE(spans[0].dur_us, 0.0);
}

TEST(TraceExport, AssemblesLoadableChromeTraceJson) {
  telemetry::SpanLog log;
  telemetry::SpanLog* prev = telemetry::install_span_log(&log);
  { telemetry::ScopedTimer t("build.alpha_ms"); (void)t; }
  telemetry::install_span_log(prev);

  telemetry::RecordingTraceSink sink;
  const std::uint64_t id = sink.begin_lookup(3, 42);
  telemetry::HopRecord hop;
  hop.lookup = id;
  hop.from = 3;
  hop.to = 5;
  hop.hop_index = 0;
  hop.level = 1;
  sink.on_hop(hop);
  sink.end_lookup(id, true, 5);

  telemetry::TimeSeriesRecorder series(50.0);
  series.lookup_completed(10.0, true, 4.0);
  series.live_nodes(10.0, 8);

  telemetry::TraceExporter exporter;
  exporter.set_process_name(telemetry::TraceExporter::kBuildPid,
                            "construction phases");
  exporter.add_span_log(log);
  exporter.add_lookup_traces(sink);
  exporter.add_timeseries(series);

  // Round-trip through the serializer: the document must parse and carry
  // the three standard track kinds.
  const JsonValue doc = JsonValue::parse(exporter.to_json().dump());
  EXPECT_EQ(doc.get("displayTimeUnit")->as_string(), "ms");
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), exporter.event_count());
  bool saw_span = false, saw_hop = false, saw_counter = false,
       saw_meta = false;
  for (const JsonValue& ev : events->items()) {
    const std::string& ph = ev.get("ph")->as_string();
    if (ph == "X") {
      EXPECT_GE(ev.get("ts")->as_double(), 0.0);
      EXPECT_GE(ev.get("dur")->as_double(), 0.0);
      const std::string& name = ev.get("name")->as_string();
      saw_span = saw_span || name == "build.alpha_ms";
      saw_hop = saw_hop || name.rfind("hop ", 0) == 0;
    } else if (ph == "C") {
      saw_counter = true;
    } else if (ph == "M") {
      saw_meta = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_hop);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_meta);

  // write_file emits the same document, and rejects unwritable paths.
  const std::string path =
      testing::TempDir() + "/telemetry_trace_test.json";
  exporter.write_file(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NO_THROW(JsonValue::parse(buffer.str()));
  std::remove(path.c_str());
  EXPECT_THROW(exporter.write_file("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace canon
