// Shared main() for the google-benchmark microbenchmarks, adding the same
// --json=<path> report the fig*/ablation_* binaries emit.
//
// google-benchmark owns the command line (and rejects flags it does not
// know), so run_micro_benchmarks strips --json/--seed before Initialize,
// captures every benchmark run through a pass-through reporter, and folds
// the results — plus any registry metrics the benchmarked code recorded,
// e.g. the build.*_ms construction timers — into the standard report
// schema: one series row per benchmark with {name, iterations, real_time,
// cpu_time, time_unit, <counters...>}.
#ifndef CANON_BENCH_MICRO_UTIL_H
#define CANON_BENCH_MICRO_UTIL_H

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/flags.h"
#include "common/parallel.h"
#include "overlay/routing.h"
#include "telemetry/report.h"

namespace canon::bench {

/// ConsoleReporter that also keeps every Run for the JSON report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) runs_.push_back(r);
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

inline int run_micro_benchmarks(int argc, char** argv,
                                const char* bench_name) {
  const std::string json_path = flag_str(argc, argv, "json", "");
  const std::uint64_t seed = flag_u64(argc, argv, "seed", 42);
  // --threads=N (0 ⇒ hardware_concurrency, 1 ⇒ exact serial path) for the
  // construction benchmarks; deterministic, only affects wall clock.
  set_parallel_threads(flag_int(argc, argv, "threads", 0));
  // The probe kernel's batch width: results are width invariant, only the
  // memory schedule moves.
  set_probe_batch_width(
      flag_int(argc, argv, "batch-width", kDefaultProbeBatchWidth));

  // Hide our flags from google-benchmark's strict parser.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0 ||
        std::strncmp(argv[i], "--seed", 6) == 0 ||
        std::strncmp(argv[i], "--threads", 9) == 0 ||
        std::strncmp(argv[i], "--batch-width", 13) == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());

  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* prev = nullptr;
  if (!json_path.empty()) prev = telemetry::install_registry(&registry);

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  int rc = 0;
  if (!json_path.empty()) {
    telemetry::install_registry(prev);
    telemetry::BenchReport report(bench_name, seed);
    report.set_param("threads",
                     telemetry::JsonValue(
                         static_cast<std::int64_t>(parallel_threads())));
    report.set_param("batch_width",
                     telemetry::JsonValue(
                         static_cast<std::int64_t>(probe_batch_width())));
    for (const auto& r : reporter.runs()) {
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("name", telemetry::JsonValue(r.benchmark_name()));
      row.set("iterations",
              telemetry::JsonValue(static_cast<std::int64_t>(r.iterations)));
      row.set("real_time", telemetry::JsonValue(r.GetAdjustedRealTime()));
      row.set("cpu_time", telemetry::JsonValue(r.GetAdjustedCPUTime()));
      row.set("time_unit",
              telemetry::JsonValue(benchmark::GetTimeUnitString(r.time_unit)));
      for (const auto& [name, counter] : r.counters) {
        row.set(name, telemetry::JsonValue(static_cast<double>(counter)));
      }
      report.add_row(std::move(row));
    }
    report.merge_registry(registry);
    try {
      report.write_file(json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      rc = 1;
    }
  }
  benchmark::Shutdown();
  return rc;
}

}  // namespace canon::bench

/// Drop-in replacement for BENCHMARK_MAIN() with --json support.
#define CANON_MICRO_MAIN(bench_name)                                \
  int main(int argc, char** argv) {                                 \
    return canon::bench::run_micro_benchmarks(argc, argv,           \
                                              bench_name);          \
  }

#endif  // CANON_BENCH_MICRO_UTIL_H
