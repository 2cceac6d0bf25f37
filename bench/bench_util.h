// Shared helpers for the experiment binaries: flag parsing, headers, and
// machine-readable JSON reports.
//
// Every bench accepts --seed=<u64> plus experiment-specific size/trial
// flags so results are reproducible and scalable, and --json=<path> to
// emit a telemetry::BenchReport (schema in docs/TELEMETRY.md) alongside
// the human-readable output. The BenchRun helper ties it together:
//
//   int main(int argc, char** argv) {
//     bench::BenchRun run(argc, argv, "fig5_hops");
//     const std::uint64_t trials = run.u64("trials", 4000);   // parsed AND
//     run.header("Figure 5: ...", "avg #hops vs n, ...");     // recorded
//     ...
//     run.report().add_row(...);          // bench-specific series rows
//     return run.finish();                // writes --json if requested
//   }
//
// When --json is given, BenchRun installs a process-wide MetricsRegistry
// before any router/builder is constructed, so library-level counters and
// phase timers flow into the report. Without --json no registry is
// installed and every instrumented path stays on its no-op branch.
#ifndef CANON_BENCH_BENCH_UTIL_H
#define CANON_BENCH_BENCH_UTIL_H

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "telemetry/json_writer.h"
#include "telemetry/mem_stats.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"

namespace canon::bench {

/// The standard benchmark population: `n` nodes in a `levels`-deep
/// hierarchy with fanout 10 (the figures' default), grown from its own
/// dedicated seed. Shared by the micro benches so every binary ties its
/// timings to the same structures.
inline OverlayNetwork bench_population(std::size_t n, int levels,
                                       std::uint64_t seed = 42) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 10;
  return make_population(spec, rng);
}

/// The process's peak resident set size in MB (getrusage high-water mark;
/// ru_maxrss is in KB on Linux). Monotone over the process lifetime —
/// pair it with current_rss_mb() for a point-in-time figure (the scale
/// bench reports both per row). Only the scale bench records it (as the
/// build.peak_rss_mb gauge) — the figure benches leave their reports free
/// of machine-dependent gauges beyond timings.
inline double peak_rss_mb() { return telemetry::peak_rss_mb(); }

/// The process's resident set size right now, in MB (VmRSS from
/// /proc/self/status; see telemetry/mem_stats.h for the fallbacks).
inline double current_rss_mb() { return telemetry::current_rss_mb(); }

inline void header(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n", title);
  std::printf("   reproduces: %s\n\n", paper_ref);
}

/// Converts a printed TextTable into JSON series rows: one object per row,
/// keyed by column header, with cells that parse completely as numbers
/// emitted as numbers and everything else as strings.
inline telemetry::JsonValue table_to_json(const TextTable& table) {
  telemetry::JsonValue rows = telemetry::JsonValue::array();
  for (const auto& row : table.rows()) {
    telemetry::JsonValue obj = telemetry::JsonValue::object();
    for (std::size_t c = 0; c < row.size() && c < table.header().size(); ++c) {
      const std::string& cell = row[c];
      char* end = nullptr;
      const double num = std::strtod(cell.c_str(), &end);
      if (!cell.empty() && end == cell.c_str() + cell.size()) {
        obj.set(table.header()[c], telemetry::JsonValue(num));
      } else {
        obj.set(table.header()[c], telemetry::JsonValue(cell));
      }
    }
    rows.push_back(std::move(obj));
  }
  return rows;
}

/// Per-binary run context: parses and records flags, prints the header
/// with the effective seed/params, and owns the optional JSON report and
/// metrics registry. See the file comment for the intended main() shape.
class BenchRun {
 public:
  BenchRun(int argc, char** argv, const char* bench_name)
      : seed(flag_u64(argc, argv, "seed", 42)),
        argc_(argc),
        argv_(argv),
        json_path_(flag_str(argc, argv, "json", "")),
        report_(bench_name, seed) {
    known_ = {"seed", "json", "threads", "batch-width"};
    params_.emplace_back("seed", std::to_string(seed));
    if (json_enabled()) {
      prev_registry_ = telemetry::install_registry(&registry_);
    }
    // Execution knobs (--threads=0 ⇒ hardware_concurrency,
    // --batch-width=0 ⇒ the scalar probe loop). Figures are byte-identical
    // at every value of both; check_json_schema.py strips them from
    // compared reports.
    set_parallel_threads(flag_int(argc, argv, "threads", 0));
    set_probe_batch_width(
        flag_int(argc, argv, "batch-width", kDefaultProbeBatchWidth));
    record("threads", std::to_string(parallel_threads()),
           telemetry::JsonValue(
               static_cast<std::int64_t>(parallel_threads())));
    record("batch_width", std::to_string(probe_batch_width()),
           telemetry::JsonValue(
               static_cast<std::int64_t>(probe_batch_width())));
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  ~BenchRun() {
    if (json_enabled()) telemetry::install_registry(prev_registry_);
  }

  /// Flag accessors that also record the effective value as a report
  /// param and in the printed header. Every name an accessor (or
  /// present()) asks about becomes a valid flag for header().
  std::uint64_t u64(const char* name, std::uint64_t fallback) {
    known_.emplace_back(name);
    const std::uint64_t v = flag_u64(argc_, argv_, name, fallback);
    record(name, std::to_string(v), telemetry::JsonValue(v));
    return v;
  }
  /// u64 with a lower bound: a value below `min` exits with code 2
  /// (reject_flag), naming the flag and its minimum.
  std::uint64_t u64(const char* name, std::uint64_t fallback,
                    std::uint64_t min) {
    const std::uint64_t v = u64(name, fallback);
    if (v < min) {
      const std::string expected = "an integer >= " + std::to_string(min);
      reject_flag(name, flag_raw(argc_, argv_, name), expected.c_str());
    }
    return v;
  }
  double f64(const char* name, double fallback) {
    known_.emplace_back(name);
    const double v = flag_double(argc_, argv_, name, fallback);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    record(name, buf, telemetry::JsonValue(v));
    return v;
  }
  /// f64 for a fraction of nodes or messages: a value outside [0, 1)
  /// exits with code 2 (reject_flag), naming the flag and the range.
  double fraction(const char* name, double fallback) {
    const double v = f64(name, fallback);
    if (!(v >= 0 && v < 1)) {
      reject_flag(name, flag_raw(argc_, argv_, name), "a number in [0, 1)");
    }
    return v;
  }
  std::string str(const char* name, const char* fallback) {
    known_.emplace_back(name);
    std::string v = flag_str(argc_, argv_, name, fallback);
    record(name, v, telemetry::JsonValue(v));
    return v;
  }
  bool boolean(const char* name, bool fallback) {
    known_.emplace_back(name);
    const bool v = flag_bool(argc_, argv_, name, fallback);
    record(name, v ? "true" : "false", telemetry::JsonValue(v));
    return v;
  }

  /// True iff the flag was passed at all. Does not record anything: use it
  /// to gate an optional flag's u64/f64 call so an unused feature leaves
  /// the report's params byte-identical to a build that predates the flag.
  bool present(const char* name) {
    known_.emplace_back(name);
    return flag_present(argc_, argv_, name);
  }

  /// Exits with code 2 on any flag no accessor asked about
  /// (reject_unknown_flags). Call it after reading every flag; header()
  /// calls it, so only a binary that prints no header calls it itself.
  void check_flags() const { reject_unknown_flags(argc_, argv_, known_); }

  /// Prints the bench header plus one line with every recorded param, so
  /// a pasted output snippet is reproducible on its own. Call it after
  /// reading every flag: it first runs check_flags().
  void header(const char* title, const char* paper_ref) const {
    check_flags();
    std::printf("== %s ==\n", title);
    std::printf("   reproduces: %s\n", paper_ref);
    std::printf("  ");
    for (const auto& [name, value] : params_) {
      std::printf(" %s=%s", name.c_str(), value.c_str());
    }
    std::printf("\n\n");
  }

  telemetry::BenchReport& report() { return report_; }
  bool json_enabled() const { return !json_path_.empty(); }

  /// The registry collecting this run's metrics (installed process-wide
  /// only when --json is given).
  telemetry::MetricsRegistry& metrics() { return registry_; }

  /// Writes the JSON report if --json was given. Returns the process exit
  /// code (0, or 1 on write failure) so main can `return run.finish();`.
  int finish() {
    if (!json_enabled()) return 0;
    report_.merge_registry(registry_);
    try {
      report_.write_file(json_path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  const std::uint64_t seed;

 private:
  void record(const char* name, std::string printed, telemetry::JsonValue v) {
    params_.emplace_back(name, std::move(printed));
    report_.set_param(name, std::move(v));
  }

  int argc_;
  char** argv_;
  std::string json_path_;
  telemetry::BenchReport report_;
  telemetry::MetricsRegistry registry_;
  telemetry::MetricsRegistry* prev_registry_ = nullptr;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> known_;  // flag names the binary reads
};

}  // namespace canon::bench

#endif  // CANON_BENCH_BENCH_UTIL_H
