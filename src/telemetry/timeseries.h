// Windowed time series over the *simulated* clock.
//
// The message simulator and the fault plans give the library a virtual
// timeline; TimeSeriesRecorder buckets what happens on it into fixed-width
// windows so degradation under churn or crashes becomes a curve (lookups/s
// issued and completed, failures/s, messages/s, mean queueing delay as a
// congestion proxy, live-node count) rather than one end-of-run number.
//
// Determinism: windows are pure functions of the recorded (time, value)
// stream; the message simulator is serial, so a fixed seed yields a
// byte-identical series at any thread count. Like the rest of the
// telemetry layer the recorder is opt-in and single-threaded.
#ifndef CANON_TELEMETRY_TIMESERIES_H
#define CANON_TELEMETRY_TIMESERIES_H

#include <cstdint>
#include <vector>

#include "telemetry/json_writer.h"

namespace canon::telemetry {

class TimeSeriesRecorder {
 public:
  /// Buckets events into windows of `window_ms` simulated milliseconds
  /// (window w covers [w*window_ms, (w+1)*window_ms)). Throws on a
  /// non-positive width.
  explicit TimeSeriesRecorder(double window_ms = 50.0);

  double window_ms() const { return window_ms_; }

  /// One aggregation window. `live` is the last live_nodes() value set
  /// inside the window, -1 when none was (to_json carries the previous
  /// window's value forward).
  struct Window {
    std::uint64_t issued = 0;     ///< lookups submitted
    std::uint64_t completed = 0;  ///< lookups finished (ok or not)
    std::uint64_t failures = 0;   ///< lookups finished unsuccessfully
    std::uint64_t messages = 0;   ///< messages processed at nodes
    double latency_sum_ms = 0;    ///< sum over completed lookups
    double queue_sum_ms = 0;      ///< sum over messages
    double live = -1;
  };

  void lookup_issued(double at_ms);
  void lookup_completed(double at_ms, bool ok, double latency_ms);
  /// One message processed at a node, after queueing `queue_ms`.
  void message(double at_ms, double queue_ms);
  /// Reports the live-node count as of `at_ms` (last write in a window
  /// wins; the value is carried forward across silent windows).
  void live_nodes(double at_ms, double live);

  const std::vector<Window>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

  /// The window index covering `at_ms` (clamped to 0 for negative times).
  std::size_t window_index(double at_ms) const;

  /// Array of rows {t_ms, issued_per_s, lookups_per_s, failures_per_s,
  /// messages_per_s, mean_latency_ms, mean_queue_ms, live_nodes}, one per
  /// window from 0 to the last touched window. live_nodes is carried
  /// forward; -1 until the first call.
  JsonValue to_json() const;

 private:
  Window& window_at(double at_ms);

  double window_ms_;
  std::vector<Window> windows_;
};

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_TIMESERIES_H
