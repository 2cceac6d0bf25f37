// Metrics registry for the experiment and simulation stack.
//
// Instrumented code paths (routers, the message simulator, construction and
// maintenance phases) record into named Counter / Gauge / LatencyHistogram
// instruments owned by a MetricsRegistry. The registry is opt-in: when no
// registry is installed (install_registry(nullptr), the default), every
// maybe_* accessor returns nullptr and instrumented code degrades to a
// single pointer test per event — no allocation, no lookup, no recording.
//
// Hot-path contract: Counter::inc, Gauge::set and LatencyHistogram::record_*
// never allocate. Name lookup (MetricsRegistry::counter etc.) may allocate
// on first use of a name; instrumented classes are expected to resolve
// their instruments once (at construction) and keep the pointers, which
// remain stable for the registry's lifetime (node-based map).
//
// Thread-safety: none. The whole library is single-threaded by design
// (see docs/TELEMETRY.md); guard externally if that ever changes.
#ifndef CANON_TELEMETRY_METRICS_H
#define CANON_TELEMETRY_METRICS_H

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace canon::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (sizes, rates, configuration echoes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket log-scale duration histogram.
///
/// Bucket 0 holds exact-zero durations; bucket i (i >= 1) holds durations
/// in [2^(i-1), 2^i) nanoseconds. Durations of 2^(kBuckets-1) ns and above
/// do not fit any bucket and are tallied in an explicit overflow count
/// (still included in count/sum/min/max) rather than silently clamped
/// into the top bucket — reports expose it so saturation is visible. The
/// bucket layout is compile-time fixed so record_ns is allocation-free and
/// two histograms from different runs are always comparable bucket by
/// bucket.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record_ns(std::uint64_t ns) {
    const int idx = ns == 0 ? 0 : std::bit_width(ns);
    if (idx < kBuckets) {
      ++buckets_[static_cast<std::size_t>(idx)];
    } else {
      ++overflow_;
    }
    ++count_;
    sum_ns_ += ns;
    if (count_ == 1 || ns < min_ns_) min_ns_ = ns;
    if (count_ == 1 || ns > max_ns_) max_ns_ = ns;
  }
  void record_ms(double ms) {
    record_ns(ms <= 0 ? 0 : static_cast<std::uint64_t>(ms * 1e6));
  }

  std::uint64_t count() const { return count_; }
  double total_ms() const { return static_cast<double>(sum_ns_) / 1e6; }
  /// Mean in milliseconds; 0 when empty.
  double mean_ms() const;
  /// Min/max in milliseconds; 0 when empty.
  double min_ms() const { return count_ ? static_cast<double>(min_ns_) / 1e6 : 0; }
  double max_ms() const { return count_ ? static_cast<double>(max_ns_) / 1e6 : 0; }

  /// Bucket index for a duration: 0 for 0ns, else floor(log2(ns)) + 1,
  /// clamped to the last bucket.
  static int bucket_index(std::uint64_t ns);
  /// Inclusive lower bound of bucket `i` in nanoseconds.
  static std::uint64_t bucket_floor_ns(int i);
  std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Samples too large for any bucket (>= 2^(kBuckets-1) ns).
  std::uint64_t overflow_count() const { return overflow_; }

  /// Upper-bound quantile estimate (ms) from the bucket histogram: the
  /// exclusive upper edge of the bucket containing the q-th sample.
  /// `q` in [0,1]; 0 when empty.
  double quantile_upper_ms(double q) const;

  void merge(const LatencyHistogram& other);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Owns named instruments. References returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Snapshot views, sorted by name (stable report ordering).
  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, LatencyHistogram, std::less<>>& histograms()
      const {
    return histograms_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

/// The process-wide registry, or nullptr when telemetry is off (default).
MetricsRegistry* registry();

/// Installs `r` as the process-wide registry (caller keeps ownership);
/// nullptr turns telemetry off again. Returns the previous registry.
MetricsRegistry* install_registry(MetricsRegistry* r);

/// Instrument accessors for hot paths: resolve once, keep the pointer,
/// test for null per event.
inline Counter* maybe_counter(std::string_view name) {
  MetricsRegistry* r = registry();
  return r ? &r->counter(name) : nullptr;
}
inline Gauge* maybe_gauge(std::string_view name) {
  MetricsRegistry* r = registry();
  return r ? &r->gauge(name) : nullptr;
}
inline LatencyHistogram* maybe_histogram(std::string_view name) {
  MetricsRegistry* r = registry();
  return r ? &r->histogram(name) : nullptr;
}

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_METRICS_H
