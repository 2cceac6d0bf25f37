// Shared pieces of the repository benchmark: options, the in-memory span
// recorder, and the per-run result a workload fills in.
//
// Every timing here is taken from outside the library, around calls to
// its public functions; nothing in src/ knows it is being measured.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  std::string spans_path;  ///< where a traced run writes its spans
};

/// The library layers spans are attributed to (the repository's modules);
/// "bench" marks the benchmark's own spans.
inline constexpr const char* kLayers[] = {
    "population", "topology",    "builders",    "link_table",
    "lookups",    "simulator",   "maintenance", "audit"};

/// One recorded span. `parent` indexes the span list (-1 for a root).
/// An aggregate span stands for many short calls (a wrapped closure) that
/// ran inside its parent; its duration is their summed time and `calls`
/// their number.
struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t calls = 0;  ///< > 0 only for aggregate spans
};

/// Keeps spans in memory while enabled; does nothing while disabled.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  std::int32_t open(std::string_view name, std::string_view layer,
                    std::int64_t start_ns);
  void close(std::int32_t span, std::int64_t end_ns);

  /// Records `calls` calls totalling `ns` as an aggregate child of the
  /// innermost open span.
  void aggregate(std::string_view name, std::string_view layer,
                 std::uint64_t calls, std::int64_t ns);

  /// Self time (span minus its children) summed per layer over the spans
  /// whose root is one of `roots`, in ms.
  std::map<std::string, double> self_ms_by_layer(
      const std::vector<std::int32_t>& roots) const;

  /// Writes every span as JSON; returns false when the file can't be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Times one call: always measures wall time, and records a span when the
/// tracer is on.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::string_view layer)
      : tracer_(tracer), start_(now_ns()),
        span_(tracer.open(name, layer, start_)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { stop_ms(); }

  std::int32_t span() const { return span_; }

  /// Ends the scope (once) and returns its wall time in ms.
  double stop_ms() {
    if (!stopped_) {
      end_ = now_ns();
      tracer_.close(span_, end_);
      stopped_ = true;
    }
    return static_cast<double>(end_ - start_) / 1e6;
  }

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  std::int32_t span_;
  bool stopped_ = false;
};

/// Median and nearest-rank percentile of a sample (0 when empty).
double percentile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Everything one workload run produces. Samples are kept per name and
/// per mode (untraced, traced) so per-layer times come from rounds that
/// did not pay for tracing; counts that only a traced round can take fall
/// back to the traced samples.
class Run {
 public:
  explicit Run(Options opt);

  const Options& options() const { return opt_; }
  Tracer& tracer() { return tracer_; }

  /// Adds one sample of a per-layer metric (reported as its median).
  void sample(const std::string& name, double value);
  /// Sets an end-to-end or per-layer metric directly.
  void set(const std::string& name, double value);

  /// Records an output check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail);

  /// Counts operations of the measured phase and those that failed.
  void ops(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Runs set-up several times, each from nothing, and records setup_s as
  /// the median: at least 3 times, and more while they have taken under
  /// two seconds (up to 51), so a set-up of milliseconds is not one noisy
  /// sample. `setup` builds the state; the caller keeps the last one.
  /// Single-threaded runs move to the next allowed CPU before every
  /// set-up and round (see next_cpu).
  void setup(const std::function<void()>& setup);

  /// Runs `round` until opt.seconds have passed (at least `min_rounds`
  /// times). A traced run spends the first half untraced and the second
  /// half traced, and reports the difference as the tracing overhead.
  /// `round` returns the number of work items it completed. Fills
  /// ops_per_s (the 90th percentile of the untraced rounds' item rates),
  /// round_ms and, traced, each layer's share of the traced rounds' self
  /// time (self.<layer>.pct).
  void measure(const std::function<std::uint64_t()>& round,
               int min_rounds = 3);

  /// Records the memory ledger's per-tag peaks as the mem.* metrics now;
  /// finish() keeps them. For a workload whose state grows with the number
  /// of rounds, this keeps the figures independent of the run's speed.
  void record_memory();

  /// Finishes the run: peak RSS, memory ledger (unless recorded already),
  /// spans file, and the result line on stdout. Returns the process exit
  /// code.
  int finish();

 private:
  /// The CPUs of a machine shared with other tenants differ in speed, and
  /// a single-threaded process tends to stay on one of them for its whole
  /// life. Visiting every allowed CPU in turn makes a run's figures an
  /// average over them instead of a draw of one.
  void next_cpu();

  Options opt_;
  std::vector<int> cpus_;  ///< CPUs to rotate over (empty: no rotation)
  std::size_t next_cpu_ = 0;
  Tracer tracer_;
  std::map<std::string, std::vector<double>> samples_[2];
  std::map<std::string, double> values_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// The four workloads (workloads.cc).
void run_build(Run& run);
void run_lookup(Run& run);
void run_congestion(Run& run);
void run_churn(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
