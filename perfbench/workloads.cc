// The four benchmark workloads. Each one sets up its inputs from the seed,
// runs rounds of work until the time is up, and then checks its outputs.
// Every call into the library sits inside a Scope, which times it and, in
// a traced run, records it as a span of the layer the call belongs to.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "canon/crescendo.h"
#include "common/rng.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/family_registry.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "topology/physical_network.h"

namespace perfbench {
namespace {

using namespace canon;

// build: one Fig. 5 population, every family built each round.
constexpr std::size_t kBuildNodes = 1 << 12;
constexpr std::size_t kBuildRouteSample = 1000;

// lookup: Crescendo on the large population, Kandy and Can-Can on the
// small one; lookups per batch and per-call route() samples per round.
// The tables fit in a core's L2: at 2^16 nodes the rates followed the
// host's memory contention and spread twice as much from run to run.
constexpr std::size_t kRingNodes = 1 << 13;
constexpr std::size_t kSmallNodes = 1 << 12;
constexpr std::size_t kRingBatch = 1 << 14;
constexpr std::size_t kXorBatch = 1 << 13;
constexpr std::size_t kCanBatch = 1 << 9;
constexpr std::size_t kFaultyBatch = 1 << 13;
constexpr double kCrashFraction = 0.05;
constexpr std::size_t kScalarRoutes = 1 << 12;
constexpr std::size_t kCheckSample = 4096;

// congestion: the ablation_congestion setting at alpha = 2.
constexpr std::size_t kHosts = 512;
constexpr std::size_t kSimLookups = 4000;
constexpr double kBaseGapMs = 1.25;  // submission gap at offered load 1
constexpr double kZipfLoad = 2.0;    // twice the flash-crowd knee
constexpr double kUniformLoad = 1.0;

// churn: leave+join pairs per round, then one lookup batch on the
// snapshot.
constexpr std::size_t kChurnNodes = 4096;
constexpr std::size_t kChurnPairs = 32;
constexpr std::size_t kChurnLookups = 4096;
// Churn changes the overlay every round, so its deterministic figures
// (hops, messages, ledger peaks) cover only the first rounds, which every
// run makes (the minimum passed to Run::measure) before timing can make
// runs differ.
constexpr int kCountedRounds = 3;

PopulationSpec fig5_spec(std::size_t nodes) {
  PopulationSpec spec;
  spec.node_count = nodes;
  spec.hierarchy.levels = 5;
  spec.hierarchy.fanout = 10;
  spec.hierarchy.placement = Placement::kZipf;
  spec.hierarchy.zipf_theta = 1.25;
  return spec;
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }

/// Calls and summed wall time of a wrapped closure.
struct CallTally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// The counting-and-timing adapters handed to MessageSimulator in traced
/// rounds; they split the simulator's own time from the routing-rank
/// (Stepper) and latency-lookup (HopCost) time it calls out to.
Stepper timed_stepper(const Stepper& inner, CallTally& tally) {
  return [&inner, &tally](NodeIndex at, NodeId key, std::uint64_t& state,
                          std::span<NodeIndex> out) {
    const std::int64_t t0 = now_ns();
    const StepResult r = inner(at, key, state, out);
    tally.ns += now_ns() - t0;
    ++tally.calls;
    return r;
  };
}

HopCost timed_hop_cost(const HopCost& inner, CallTally& tally) {
  return [&inner, &tally](std::uint32_t a, std::uint32_t b) {
    const std::int64_t t0 = now_ns();
    const double ms = inner(a, b);
    tally.ns += now_ns() - t0;
    ++tally.calls;
    return ms;
  };
}

/// Every registry family the build workload times. clique_crescendo is
/// left out: its link count grows quadratically with the leaf size, so it
/// alone would outweigh the other twelve.
std::vector<std::string> built_families() {
  std::vector<std::string> out;
  for (const registry::FamilyEntry& e : registry::families()) {
    if (e.name != "clique_crescendo") out.emplace_back(e.name);
  }
  return out;
}

bool same_stats(const QueryStats& a, const QueryStats& b) {
  return a.queries == b.queries && a.failures == b.failures &&
         a.total_hops == b.total_hops && a.hops_by_level == b.hops_by_level &&
         a.hops.count() == b.hops.count() && a.hops.sum() == b.hops.sum() &&
         a.hops.min() == b.hops.min() && a.hops.max() == b.hops.max();
}

}  // namespace

// ---------------------------------------------------------------- build

void run_build(Run& run) {
  const Options& opt = run.options();
  Tracer& tracer = run.tracer();
  const std::vector<std::string> families = built_families();

  std::optional<OverlayNetwork> net;
  run.setup([&] {
    net.reset();
    Scope s(tracer, "population", "population");
    Rng rng(opt.seed);
    net.emplace(make_population(fig5_spec(kBuildNodes), rng));
    run.sample("population.ms", s.stop_ms());
  });

  run.measure([&] {
    std::uint64_t links = 0;
    double build_ms = 0;
    const auto record = [&](const std::string& name, Scope& s,
                            const LinkTable& table) {
      const double ms = s.stop_ms();
      build_ms += ms;
      links += table.total_links();
      run.sample("build." + name + ".ms", ms);
      run.sample("build." + name + ".links", as_double(table.total_links()));
    };
    for (const std::string& name : families) {
      Scope s(tracer, "build." + name, "builders");
      const LinkTable table = registry::build_family(*net, name, opt.seed);
      record(name, s, table);
    }
    {
      Scope s(tracer, "build.crescendo_streamed", "builders");
      const LinkTable table = build_crescendo_streamed(*net);
      record("crescendo_streamed", s, table);
    }
    run.sample("build_s", build_ms / 1e3);
    run.ops(families.size() + 1);
    return links;
  });

  // Checks: every table audits clean and routes a sample without failure;
  // the streamed Crescendo build equals the plain one.
  const Rng qrng(opt.seed ^ 0x6275696c64ULL);
  const std::vector<Query> queries =
      uniform_workload(*net, kBuildRouteSample, qrng);
  const QueryEngine engine(*net);
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::uint64_t hops = 0;
  std::uint64_t lookups = 0;
  for (const std::string& name : families) {
    const LinkTable table = registry::build_family(*net, name, opt.seed);
    {
      Scope s(tracer, "audit." + name, "audit");
      const audit::AuditReport report =
          registry::audit_family(name, *net, table);
      checks += report.total_checks();
      violations += report.violations.size();
      run.check("audit." + name, report.ok(), report.summary());
    }
    const QueryStats stats =
        registry::family(name).make_router(*net, table).run(engine, queries);
    hops += stats.total_hops;
    lookups += stats.queries;
    run.ops(stats.queries, stats.failures);
    if (name == "crescendo") {
      run.check("crescendo_streamed == crescendo",
                build_crescendo_streamed(*net) == table,
                std::to_string(table.total_links()) + " links");
    }
  }
  run.set("audit.checks", as_double(checks));
  run.set("audit.violations", as_double(violations));
  run.set("mean_hops", as_double(hops) / as_double(lookups));
}

// --------------------------------------------------------------- lookup

namespace {

// The lookup workload's routing metrics, one family each.
constexpr const char* kMetrics[3] = {"ring", "xor", "can"};

struct LookupBatch {
  std::string name;  // query.<metric>.<keys>
  int metric;        // index into kMetrics
  const registry::FamilyRouter* router;
  const QueryEngine* engine;
  std::vector<Query> queries;
};

struct LookupState {
  std::optional<OverlayNetwork> ring_net;
  std::optional<OverlayNetwork> small_net;
  std::optional<LinkTable> crescendo, kandy, cancan;
  std::optional<registry::FamilyRouter> ring_router, xor_router, can_router;
  std::optional<RingRouter> scalar;
  std::optional<QueryEngine> ring_engine, small_engine;
  std::vector<LookupBatch> batches;
  std::vector<Query> faulty_queries;
  FaultPlan plan;
};

}  // namespace

void run_lookup(Run& run) {
  const Options& opt = run.options();
  Tracer& tracer = run.tracer();
  std::unique_ptr<LookupState> st;

  run.setup([&] {
    st.reset();
    st = std::make_unique<LookupState>();
    {
      Scope s(tracer, "population", "population");
      Rng ring_rng(opt.seed);
      st->ring_net.emplace(make_population(fig5_spec(kRingNodes), ring_rng));
      Rng small_rng(opt.seed + 1);
      st->small_net.emplace(
          make_population(fig5_spec(kSmallNodes), small_rng));
      run.sample("population.ms", s.stop_ms());
    }
    const auto build = [&](const char* name, const OverlayNetwork& net,
                           std::optional<LinkTable>& out) {
      Scope s(tracer, std::string("build.") + name, "builders");
      out.emplace(registry::build_family(net, name, opt.seed));
      run.sample(std::string("build.") + name + ".ms", s.stop_ms());
      run.sample(std::string("build.") + name + ".links",
                 as_double(out->total_links()));
    };
    build("crescendo", *st->ring_net, st->crescendo);
    build("kandy", *st->small_net, st->kandy);
    build("cancan", *st->small_net, st->cancan);
    st->ring_router.emplace(registry::family("crescendo")
                                .make_router(*st->ring_net, *st->crescendo));
    st->xor_router.emplace(
        registry::family("kandy").make_router(*st->small_net, *st->kandy));
    st->can_router.emplace(
        registry::family("cancan").make_router(*st->small_net, *st->cancan));
    st->scalar.emplace(*st->ring_net, *st->crescendo);
    st->ring_engine.emplace(*st->ring_net);
    st->small_engine.emplace(*st->small_net);

    Scope s(tracer, "query.workload_gen", "lookups");
    const Rng wrng(opt.seed ^ 0x6c6f6f6bULL);
    const auto add = [&](int metric, const registry::FamilyRouter& r,
                         const QueryEngine& e, const OverlayNetwork& net,
                         std::size_t count) {
      const Rng base = wrng.fork(static_cast<std::uint64_t>(metric) + 1);
      const std::string prefix = std::string("query.") + kMetrics[metric];
      st->batches.push_back({prefix + ".uniform", metric, &r, &e,
                             uniform_workload(net, count, base)});
      st->batches.push_back({prefix + ".zipf", metric, &r, &e,
                             zipf_workload(net, count, base, 1.25)});
    };
    add(0, *st->ring_router, *st->ring_engine, *st->ring_net, kRingBatch);
    add(1, *st->xor_router, *st->small_engine, *st->small_net, kXorBatch);
    add(2, *st->can_router, *st->small_engine, *st->small_net, kCanBatch);
    st->faulty_queries =
        uniform_workload(*st->ring_net, kFaultyBatch, wrng.fork(4));
    st->plan = FaultPlan::fail_fraction(st->ring_net->size(), kCrashFraction,
                                        opt.seed);
    run.sample("query.workload_gen.ms", s.stop_ms());
  });

  // Per-call route() latencies of the untraced rounds.
  std::vector<double> route_ns;
  std::uint64_t plain_hops = 0;
  std::uint64_t plain_lookups = 0;
  std::uint64_t plain_failures = 0;
  run.measure([&] {
    std::uint64_t done = 0;
    double per_metric_ms[3] = {0, 0, 0};
    std::uint64_t per_metric_lookups[3] = {0, 0, 0};
    for (const LookupBatch& b : st->batches) {
      Scope s(tracer, b.name, "lookups");
      const QueryStats stats = b.router->run(*b.engine, b.queries);
      const double ms = s.stop_ms();
      run.sample(b.name + ".ms", ms);
      run.sample(b.name + ".lookups", as_double(stats.queries));
      run.sample(b.name + ".hops", as_double(stats.total_hops));
      per_metric_ms[b.metric] += ms;
      per_metric_lookups[b.metric] += stats.queries;
      plain_hops += stats.total_hops;
      plain_lookups += stats.queries;
      plain_failures += stats.failures;
      run.ops(stats.queries, stats.failures);
      done += stats.queries;
    }
    for (int m = 0; m < 3; ++m) {
      run.sample(std::string(kMetrics[m]) + "_lookups_per_s",
                 as_double(per_metric_lookups[m]) / (per_metric_ms[m] / 1e3));
    }

    // Resilient batch under the crash plan: materialize, then route.
    {
      Scope s(tracer, "fault_plan.materialize", "lookups");
      const FailureSet dead = st->plan.materialize(*st->ring_net);
      run.sample("fault_plan.materialize.ms", s.stop_ms());
      Scope q(tracer, "query.faulty", "lookups");
      const ResilientStats rs = st->ring_router->run_resilient_with(
          *st->ring_engine, st->faulty_queries, dead, st->plan);
      const double ms = q.stop_ms();
      run.sample("query.faulty.ms", ms);
      run.sample("query.faulty.retries", as_double(rs.retries));
      run.sample("query.faulty.fallback_hops", as_double(rs.fallback_hops));
      run.sample("query.faulty.success_ratio", rs.success_rate());
      run.sample("faulty_lookups_per_s",
                 as_double(rs.attempted()) / (ms / 1e3));
      // Lookups that fail under the injected crashes are the measured
      // outcome, not failed operations.
      run.ops(rs.attempted());
      done += rs.attempted();
    }

    // Per-call scalar route(), the way a library caller issues lookups.
    {
      const bool keep = !tracer.enabled();
      const std::vector<Query>& qs = st->batches[0].queries;
      std::uint64_t failures = 0;
      Scope s(tracer, "route.scalar", "lookups");
      for (std::size_t i = 0; i < kScalarRoutes; ++i) {
        const Query& q = qs[i % qs.size()];
        const std::int64_t t0 = now_ns();
        const Route r = st->scalar->route(q.from, q.key);
        if (keep) route_ns.push_back(static_cast<double>(now_ns() - t0));
        failures += r.ok ? 0 : 1;
      }
      run.sample("route.scalar.ns", s.stop_ms() * 1e6 / kScalarRoutes);
      run.ops(kScalarRoutes, failures);
      done += kScalarRoutes;
    }
    return done;
  });
  run.set("route_p50_us", percentile(route_ns, 0.50) / 1e3);
  run.set("route_p99_us", percentile(route_ns, 0.99) / 1e3);
  run.set("mean_hops", as_double(plain_hops) / as_double(plain_lookups));
  run.check("plain batches have no failures", plain_failures == 0,
            std::to_string(plain_failures) + " of " +
                std::to_string(plain_lookups) + " lookups failed");

  // Checks on a sample of each family's uniform batch: the interleaved
  // batch kernel equals the scalar probe per query, and run_resilient
  // with an empty plan is field-identical to run.
  const FaultPlan no_faults;
  for (const LookupBatch& b : st->batches) {
    if (b.name.find(".uniform") == std::string::npos) continue;
    const std::span<const Query> sample(
        b.queries.data(), std::min(kCheckSample, b.queries.size()));
    std::vector<RouteProbe> batch, scalar, resilient;
    const int width = probe_batch_width();
    const QueryStats plain = b.router->run(*b.engine, sample, &batch);
    set_probe_batch_width(0);
    b.router->run(*b.engine, sample, &scalar);
    set_probe_batch_width(width);
    run.check(b.name + ": batch probe == scalar probe", batch == scalar,
              std::to_string(sample.size()) + " queries");
    const ResilientStats rs =
        b.router->run_resilient(*b.engine, sample, no_faults, &resilient);
    const bool same = same_stats(plain, rs.base) && resilient == batch &&
                      rs.retries == 0 && rs.fallback_hops == 0 &&
                      rs.skipped_dead_source == 0;
    run.check(b.name + ": run_resilient(empty plan) == run", same,
              std::to_string(sample.size()) + " queries");
  }
}

// ----------------------------------------------------------- congestion

namespace {

struct SimFamily {
  std::string name;
  std::optional<LinkTable> links;
  Stepper stepper;
};

struct CongestionState {
  std::optional<PhysicalNetwork> phys;
  std::optional<OverlayNetwork> net;
  HopCost latency;
  SimFamily families[2];
  std::vector<Query> zipf, uniform;
};

/// One simulation half's totals over both families of a round.
struct SimHalf {
  double run_ms = 0;
  std::uint64_t sent = 0, serviced = 0, timeouts = 0, retries = 0,
                inbox_drops = 0, max_inbox_depth = 0, failures = 0;
};

}  // namespace

void run_congestion(Run& run) {
  const Options& opt = run.options();
  Tracer& tracer = run.tracer();
  std::unique_ptr<CongestionState> st;

  run.setup([&] {
    st.reset();
    st = std::make_unique<CongestionState>();
    {
      Scope s(tracer, "topology", "topology");
      Rng topo_rng(opt.seed);
      st->phys.emplace(TransitStubConfig{}, topo_rng);
      run.sample("topology.ms", s.stop_ms());
    }
    {
      Scope s(tracer, "population", "population");
      Rng net_rng(opt.seed + 1);
      st->net.emplace(make_physical_population(kHosts, *st->phys, 32, net_rng));
      st->latency = host_hop_cost(*st->net, *st->phys);
      run.sample("population.ms", s.stop_ms());
    }
    const char* kNames[2] = {"chord", "crescendo"};
    for (int f = 0; f < 2; ++f) {
      SimFamily& fam = st->families[f];
      fam.name = kNames[f];
      Scope s(tracer, "build." + fam.name, "builders");
      fam.links.emplace(registry::build_family(*st->net, fam.name, opt.seed));
      fam.stepper =
          registry::family(fam.name).make_stepper(*st->net, *fam.links);
      run.sample("build." + fam.name + ".ms", s.stop_ms());
      run.sample("build." + fam.name + ".links",
                 as_double(fam.links->total_links()));
    }
    Scope s(tracer, "query.workload_gen", "lookups");
    const Rng wrng(opt.seed ^ 0x636f6e67ULL);
    st->zipf = zipf_workload(*st->net, kSimLookups, wrng.fork(1), 1.25);
    st->uniform = uniform_workload(*st->net, kSimLookups, wrng.fork(2));
    run.sample("query.workload_gen.ms", s.stop_ms());
  });

  MessageSimConfig config;
  config.service_ms = 5.0;
  config.timeout_ms = 1500.0;
  config.backoff = 2.0;
  config.retry_budget = 3;
  config.inbox_capacity = 256;
  config.alpha = 2;

  std::uint64_t ok_hops = 0;
  std::uint64_t ok_lookups = 0;
  bool all_completed = true;
  bool serviced_bounded = true;
  run.measure([&] {
    const bool traced = tracer.enabled();
    SimHalf halves[2];  // zipf, uniform
    CallTally step_tally, hop_tally;
    std::uint64_t advances = 0;
    std::vector<double> latency_ms;
    for (const SimFamily& fam : st->families) {
      for (int h = 0; h < 2; ++h) {
        const bool zipf = h == 0;
        const std::vector<Query>& queries = zipf ? st->zipf : st->uniform;
        const double gap_ms = kBaseGapMs / (zipf ? kZipfLoad : kUniformLoad);
        CallTally step_run, hop_run;
        Scope s(tracer, zipf ? "sim.zipf" : "sim.uniform", "simulator");
        MessageSimulator sim(
            *st->net, *fam.links,
            traced ? timed_stepper(fam.stepper, step_run) : fam.stepper,
            traced ? timed_hop_cost(st->latency, hop_run) : st->latency,
            config);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          sim.submit(queries[i].from, queries[i].key,
                     gap_ms * static_cast<double>(i));
        }
        sim.run();
        tracer.aggregate("stepper", "lookups", step_run.calls, step_run.ns);
        tracer.aggregate("topology.hop_cost", "topology", hop_run.calls,
                         hop_run.ns);
        SimHalf& half = halves[h];
        half.run_ms += s.stop_ms();
        step_tally.calls += step_run.calls;
        step_tally.ns += step_run.ns;
        hop_tally.calls += hop_run.calls;
        hop_tally.ns += hop_run.ns;

        const MessageSimulator::Totals& t = sim.totals();
        half.sent += t.sent;
        half.serviced += t.serviced;
        half.timeouts += t.timeouts;
        half.retries += t.retries;
        half.inbox_drops += t.inbox_drops;
        half.failures += t.failures;
        for (const std::uint32_t d : sim.max_queue_depth()) {
          half.max_inbox_depth =
              std::max<std::uint64_t>(half.max_inbox_depth, d);
        }
        // A source services its own injection without a network leg, so
        // each lookup may add one serviced request beyond those sent.
        serviced_bounded =
            serviced_bounded && t.serviced <= t.sent + queries.size();
        for (const MessageSimulator::LookupResult& r : sim.lookups()) {
          all_completed = all_completed && r.completed_ms >= 0;
          latency_ms.push_back(r.latency_ms());
          advances += static_cast<std::uint64_t>(r.hops);
          if (r.ok) {
            ok_hops += static_cast<std::uint64_t>(r.hops);
            ++ok_lookups;
          }
        }
        // A lookup that gives up under the flash crowd is the measured
        // outcome (sim.<half>.failures); one that never completes fails
        // the completion check.
        run.ops(sim.lookups().size());
      }
    }
    std::uint64_t sent = 0;
    double run_ms = 0;
    for (int h = 0; h < 2; ++h) {
      const SimHalf& half = halves[h];
      const std::string p = h == 0 ? "sim.zipf." : "sim.uniform.";
      run.sample(p + "run_ms", half.run_ms);
      run.sample(p + "sent", as_double(half.sent));
      run.sample(p + "serviced", as_double(half.serviced));
      run.sample(p + "timeouts", as_double(half.timeouts));
      run.sample(p + "retries", as_double(half.retries));
      run.sample(p + "inbox_drops", as_double(half.inbox_drops));
      run.sample(p + "max_inbox_depth", as_double(half.max_inbox_depth));
      run.sample(p + "failures", as_double(half.failures));
      sent += half.sent;
      run_ms += half.run_ms;
    }
    run.sample("sim_msgs_per_s", as_double(sent) / (run_ms / 1e3));
    run.sample("sim_p50_ms", percentile(latency_ms, 0.50));
    run.sample("sim_p99_ms", percentile(latency_ms, 0.99));
    run.sample("sim.useful_ratio", as_double(advances) / as_double(sent));
    if (traced) {
      run.sample("stepper.calls", as_double(step_tally.calls));
      run.sample("stepper.ns",
                 as_double(static_cast<std::uint64_t>(step_tally.ns)) /
                     as_double(step_tally.calls));
      run.sample("topology.hop_cost.calls", as_double(hop_tally.calls));
      run.sample("topology.hop_cost.ns",
                 as_double(static_cast<std::uint64_t>(hop_tally.ns)) /
                     as_double(hop_tally.calls));
      run.sample("sim.self_ms",
                 run_ms - static_cast<double>(step_tally.ns + hop_tally.ns) /
                              1e6);
    }
    return sent;
  });
  run.set("mean_hops", as_double(ok_hops) / as_double(ok_lookups));
  run.check("every submitted lookup completes", all_completed,
            "2 families x 2 halves per round");
  run.check("serviced <= sent + submitted", serviced_bounded,
            "every simulation");
}

// ---------------------------------------------------------------- churn

namespace {

struct ChurnState {
  std::optional<DynamicCrescendo> dht;
  std::vector<NodeId> spare_ids;  // queue of IDs not in the overlay
  std::size_t next_spare = 0;
  Rng path_rng{0};
  Rng victim_rng{0};
  std::vector<Query> queries;
};

HierarchySpec churn_hierarchy() {
  HierarchySpec h;
  h.levels = 3;
  h.fanout = 5;
  return h;
}

}  // namespace

void run_churn(Run& run) {
  const Options& opt = run.options();
  Tracer& tracer = run.tracer();
  const IdSpace space(kDefaultIdBits);
  std::unique_ptr<ChurnState> st;

  run.setup([&] {
    st.reset();
    st = std::make_unique<ChurnState>();
    Rng rng(opt.seed);
    std::vector<OverlayNode> nodes;
    {
      Scope s(tracer, "population", "population");
      std::vector<NodeId> ids =
          sample_unique_ids(2 * kChurnNodes, space, rng);
      const std::vector<DomainPath> paths =
          generate_hierarchy(kChurnNodes, churn_hierarchy(), rng);
      for (std::size_t i = 0; i < kChurnNodes; ++i) {
        nodes.push_back({ids[i], paths[i], -1});
      }
      st->spare_ids.assign(ids.begin() + kChurnNodes, ids.end());
      st->path_rng = rng.fork(1);
      st->victim_rng = rng.fork(2);
      run.sample("population.ms", s.stop_ms());
    }
    {
      Scope s(tracer, "maintenance.bootstrap", "maintenance");
      st->dht.emplace(space, std::move(nodes));
      run.sample("maintenance.bootstrap.ms", s.stop_ms());
    }
    Scope s(tracer, "query.workload_gen", "lookups");
    st->queries =
        uniform_workload(st->dht->network(), kChurnLookups, rng.fork(3));
    run.sample("query.workload_gen.ms", s.stop_ms());
  });

  std::vector<double> op_ms[2];  // leave, join; untraced rounds only
  std::uint64_t messages = 0;
  std::uint64_t nodes_updated = 0;
  std::uint64_t changes = 0;
  std::uint64_t route_hops = 0;
  std::uint64_t route_lookups = 0;
  std::size_t round = 0;
  run.measure([&] {
    const bool keep = !tracer.enabled();
    const bool counted = round++ < kCountedRounds;
    DynamicCrescendo& dht = *st->dht;
    double change_ms = 0;
    for (std::size_t p = 0; p < kChurnPairs; ++p) {
      const auto victim = static_cast<NodeIndex>(
          st->victim_rng.uniform(dht.network().size()));
      const NodeId gone = dht.network().id(victim);
      MaintenanceCost leave, join;
      {
        Scope s(tracer, "maintenance.leave", "maintenance");
        leave = dht.leave(gone);
        const double ms = s.stop_ms();
        if (keep) op_ms[0].push_back(ms);
        change_ms += ms;
      }
      // The leaver's ID goes to the back of the spare queue, so joiners
      // never collide with a member.
      const NodeId id = st->spare_ids[st->next_spare % st->spare_ids.size()];
      st->spare_ids[st->next_spare % st->spare_ids.size()] = gone;
      ++st->next_spare;
      const DomainPath path =
          generate_hierarchy(1, churn_hierarchy(), st->path_rng)[0];
      {
        Scope s(tracer, "maintenance.join", "maintenance");
        join = dht.join({id, path, -1});
        const double ms = s.stop_ms();
        if (keep) op_ms[1].push_back(ms);
        change_ms += ms;
      }
      changes += 2;
      if (counted) {
        messages += static_cast<std::uint64_t>(leave.messages() +
                                               join.messages());
        nodes_updated += static_cast<std::uint64_t>(leave.nodes_updated +
                                                    join.nodes_updated);
      }
    }
    run.ops(2 * kChurnPairs);
    run.sample("churn_ops_per_s", 2.0 * kChurnPairs / (change_ms / 1e3));

    // Reads on the current snapshot.
    Scope lt(tracer, "maintenance.link_table", "link_table");
    const LinkTable links = dht.link_table();
    run.sample("maintenance.link_table.ms", lt.stop_ms());
    Scope rs(tracer, "churn.route", "lookups");
    const RingRouter router(dht.network(), links);
    const QueryEngine engine(dht.network());
    const QueryStats stats = engine.run(st->queries, router);
    run.sample("churn.route.ms", rs.stop_ms());
    if (counted) {
      route_hops += stats.total_hops;
      route_lookups += stats.queries;
    }
    if (round == kCountedRounds) run.record_memory();
    run.ops(stats.queries, stats.failures);
    return 2 * kChurnPairs;
  }, kCountedRounds);
  for (int kind = 0; kind < 2; ++kind) {
    const std::string p =
        kind == 0 ? "maintenance.leave." : "maintenance.join.";
    run.set(p + "p50_ms", percentile(op_ms[kind], 0.50));
    run.set(p + "p99_ms", percentile(op_ms[kind], 0.99));
  }
  const double counted_changes = 2.0 * kChurnPairs * kCountedRounds;
  run.set("maintenance.messages_per_op",
          as_double(messages) / counted_changes);
  run.set("maintenance.nodes_updated",
          as_double(nodes_updated) / counted_changes);
  run.set("mean_hops", as_double(route_hops) / as_double(route_lookups));

  // Checks: the maintained links equal a from-scratch build, and the
  // final structure audits clean.
  const LinkTable maintained = st->dht->link_table();
  const LinkTable scratch = build_crescendo(st->dht->network());
  run.check("maintained links == build_crescendo", maintained == scratch,
            std::to_string(st->dht->size()) + " nodes after " +
                std::to_string(changes) + " changes");
  Scope s(tracer, "audit.crescendo", "audit");
  const audit::AuditReport report =
      registry::audit_family("crescendo", st->dht->network(), maintained);
  run.set("audit.checks", as_double(report.total_checks()));
  run.set("audit.violations", as_double(report.violations.size()));
  run.check("audit.crescendo", report.ok(), report.summary());
}

}  // namespace perfbench
