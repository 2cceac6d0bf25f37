// Ablation A10: congestion under concurrent α-parallel lookups.
//
// Everything upstream of this bench evaluates routes one at a time; here
// the message-granularity simulator (overlay/message_sim.h) runs the same
// workloads as *timestamped message traffic* through per-node bounded
// inboxes over the 2040-router transit-stub topology's latencies, and the
// table sweeps offered load × α for flat Chord vs hierarchical Crescendo:
//
//   * Under uniform traffic every load point stays uncongested: p99
//     latency tracks the link latencies and nothing times out.
//   * Under a Zipf(1.25) flash crowd the hottest key's terminal saturates
//     near load 1.0: queue waits pass the probe timeout, retries add
//     traffic to the already-saturated node, and p99 / timeout counts
//     rise super-linearly past the knee while sub-saturation points stay
//     flat.
//   * α > 1 keeps warm backup probes per hop — at the cost of
//     multiplying message load, which drags the knee earlier.
//   * The LoadAccountant rides along on every row: hierarchical
//     Crescendo keeps its intra-domain lookups confined (§5) even while
//     collapsing under the flash crowd; flat Chord never confines.
//   * So does the simulator's own profile: events handled per kind and
//     the event queue's high-water mark. Each run() is timed into the
//     message_sim.run_ms histogram, so events/s and messages/s follow.
//
// The simulator is serial and its stable monotone event queue pops events
// in time order, ties in the order they were scheduled, so every row —
// percentiles, timeout counts, confinement, the profile, the congestion
// time series — is byte-identical at any --threads (ctest
// bench_query_determinism_congestion); only the run_ms histogram moves.
#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "common/table.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "telemetry/load_stats.h"
#include "telemetry/scoped_timer.h"
#include "telemetry/timeseries.h"
#include "topology/physical_network.h"

using namespace canon;

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "ablation_congestion");
  const std::uint64_t seed = run.seed;
  const std::uint64_t n = run.u64("nodes", 512, 1);
  const std::uint64_t lookups = run.u64("lookups", 4000);
  const double theta = run.f64("theta", 1.25);
  // Submission gap (ms) between consecutive lookups at offered load 1.0;
  // load x divides it. Tuned so the Zipf flash crowd's hottest terminal
  // crosses its service capacity right around x = 1.
  const double base_gap_ms = run.f64("base-gap-ms", 1.25);
  run.header(
      "Ablation A10: congestion under concurrent lookups",
      "message-granularity simulation on the transit-stub topology; "
      "offered load x alpha, uniform vs Zipf flash crowd, Chord vs "
      "Crescendo");

  Rng topo_rng(seed);
  const PhysicalNetwork phys(TransitStubConfig{}, topo_rng);
  Rng net_rng(seed + 1);
  const auto net = make_physical_population(n, phys, 32, net_rng);
  const HopCost latency = host_hop_cost(net, phys);

  MessageSimConfig base_config;
  base_config.service_ms = 5.0;     // a node serves 200 req/s
  base_config.timeout_ms = 1500.0;  // > the longest uncongested RTT
  base_config.backoff = 2.0;
  base_config.retry_budget = 3;
  base_config.inbox_capacity = 256;

  const char* kFamilies[] = {"chord", "crescendo"};
  const char* kWorkloads[] = {"uniform", "zipf"};
  const int kAlphas[] = {1, 2, 4};
  const double kLoads[] = {0.5, 1.0, 2.0, 4.0};
  const double max_load = kLoads[std::size(kLoads) - 1];

  TextTable table({"family", "workload", "alpha", "load", "p50 ms", "p99 ms",
                   "p999 ms", "timeouts", "retries", "failed", "hops",
                   "max queue", "confined"});

  for (const char* family : kFamilies) {
    const LinkTable links = registry::build_family(net, family, seed);
    const registry::FamilyEntry& entry = registry::family(family);
    const Stepper stepper = entry.make_stepper(net, links);
    for (const char* workload : kWorkloads) {
      const Rng wrng(seed);
      const auto queries =
          std::string(workload) == "uniform"
              ? uniform_workload(net, lookups, wrng)
              : zipf_workload(net, lookups, wrng, theta);
      for (const int alpha : kAlphas) {
        for (const double load : kLoads) {
          MessageSimConfig config = base_config;
          config.alpha = alpha;
          MessageSimulator sim(net, links, stepper, latency, config);

          telemetry::LoadAccountant accountant(net.domains(), net.ids());
          telemetry::TimeSeriesRecorder series(/*window_ms=*/250.0);
          SimSinks sinks;
          sinks.load = &accountant;
          sinks.timeseries = &series;
          sim.attach(sinks);

          const double gap_ms = base_gap_ms / load;
          for (std::size_t i = 0; i < queries.size(); ++i) {
            sim.submit(queries[i].from, queries[i].key,
                       gap_ms * static_cast<double>(i));
          }
          {
            telemetry::ScopedTimer timer("message_sim.run_ms");
            sim.run();
          }

          const auto& results = sim.lookups();
          const double p50 = lookup_latency_percentile(results, 0.50);
          const double p99 = lookup_latency_percentile(results, 0.99);
          const double p999 = lookup_latency_percentile(results, 0.999);
          std::uint64_t ok = 0;
          std::uint64_t ok_hops = 0;
          for (const auto& r : results) {
            if (r.ok) {
              ++ok;
              ok_hops += static_cast<std::uint64_t>(r.hops);
            }
          }
          const double mean_hops =
              ok ? static_cast<double>(ok_hops) / static_cast<double>(ok) : 0;
          const std::uint32_t max_queue = *std::max_element(
              sim.max_queue_depth().begin(), sim.max_queue_depth().end());
          const MessageSimulator::Totals& totals = sim.totals();

          table.add_row(
              {family, workload, TextTable::num(alpha),
               TextTable::num(load, 2), TextTable::num(p50, 0),
               TextTable::num(p99, 0), TextTable::num(p999, 0),
               TextTable::num(static_cast<double>(totals.timeouts), 0),
               TextTable::num(static_cast<double>(totals.retries), 0),
               TextTable::num(static_cast<double>(totals.failures), 0),
               TextTable::num(mean_hops, 2),
               TextTable::num(static_cast<std::uint64_t>(max_queue)),
               TextTable::num(accountant.confinement_ratio(), 3)});

          telemetry::JsonValue row = telemetry::JsonValue::object();
          row.set("name", telemetry::JsonValue(
                              std::string(family) + "/" + workload + "/a" +
                              std::to_string(alpha) + "/x" +
                              TextTable::num(load, 2)));
          row.set("family", telemetry::JsonValue(family));
          row.set("workload", telemetry::JsonValue(workload));
          row.set("alpha",
                  telemetry::JsonValue(static_cast<std::int64_t>(alpha)));
          row.set("load", telemetry::JsonValue(load));
          row.set("gap_ms", telemetry::JsonValue(gap_ms));
          row.set("p50_ms", telemetry::JsonValue(p50));
          row.set("p99_ms", telemetry::JsonValue(p99));
          row.set("p999_ms", telemetry::JsonValue(p999));
          row.set("mean_hops", telemetry::JsonValue(mean_hops));
          row.set("sent", telemetry::JsonValue(totals.sent));
          row.set("serviced", telemetry::JsonValue(totals.serviced));
          row.set("timeouts", telemetry::JsonValue(totals.timeouts));
          row.set("retries", telemetry::JsonValue(totals.retries));
          row.set("link_drops", telemetry::JsonValue(totals.link_drops));
          row.set("inbox_drops", telemetry::JsonValue(totals.inbox_drops));
          row.set("failures", telemetry::JsonValue(totals.failures));
          row.set("max_queue_depth",
                  telemetry::JsonValue(
                      static_cast<std::uint64_t>(max_queue)));
          row.set("start_events", telemetry::JsonValue(totals.start_events));
          row.set("arrive_events",
                  telemetry::JsonValue(totals.arrive_events));
          row.set("response_events",
                  telemetry::JsonValue(totals.response_events));
          row.set("timeout_events",
                  telemetry::JsonValue(totals.timeout_events));
          row.set("queue_high_water",
                  telemetry::JsonValue(totals.queue_high_water));
          row.set("confinement",
                  telemetry::JsonValue(accountant.confinement_ratio()));
          row.set("load_stats", accountant.to_json());
          // The congestion curve (lookups/s vs completions/s vs queueing)
          // for the flash-crowd collapse rows only — one curve per family
          // at the deepest saturation keeps the report compact.
          if (std::string(workload) == "zipf" && alpha == 2 &&
              load == max_load) {
            row.set("timeseries", series.to_json());
          }
          run.report().add_row(std::move(row));
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(expected: uniform rows stay flat at every load; zipf "
               "rows show the knee — p99 and timeouts rise super-linearly "
               "past load 1.0, earlier at higher alpha; Crescendo keeps "
               "confined >= 0.95 on every zipf row while Chord stays "
               "< 0.2)\n";
  return run.finish();
}
