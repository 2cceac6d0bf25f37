#include "telemetry/timeseries.h"

#include <cmath>
#include <stdexcept>

namespace canon::telemetry {

TimeSeriesRecorder::TimeSeriesRecorder(double window_ms)
    : window_ms_(window_ms) {
  if (!(window_ms > 0)) {
    throw std::invalid_argument("TimeSeriesRecorder: window_ms must be > 0");
  }
}

std::size_t TimeSeriesRecorder::window_index(double at_ms) const {
  if (at_ms <= 0) return 0;
  return static_cast<std::size_t>(at_ms / window_ms_);
}

TimeSeriesRecorder::Window& TimeSeriesRecorder::window_at(double at_ms) {
  const std::size_t w = window_index(at_ms);
  if (w >= windows_.size()) windows_.resize(w + 1);
  return windows_[w];
}

void TimeSeriesRecorder::lookup_issued(double at_ms) {
  ++window_at(at_ms).issued;
}

void TimeSeriesRecorder::lookup_completed(double at_ms, bool ok,
                                          double latency_ms) {
  Window& w = window_at(at_ms);
  ++w.completed;
  if (!ok) ++w.failures;
  w.latency_sum_ms += latency_ms;
}

void TimeSeriesRecorder::message(double at_ms, double queue_ms) {
  Window& w = window_at(at_ms);
  ++w.messages;
  w.queue_sum_ms += queue_ms;
}

void TimeSeriesRecorder::live_nodes(double at_ms, double live) {
  window_at(at_ms).live = live;
}

JsonValue TimeSeriesRecorder::to_json() const {
  JsonValue rows = JsonValue::array();
  const double per_s = 1000.0 / window_ms_;
  double live = -1;  // carried forward; -1 until first reported
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const Window& win = windows_[w];
    if (win.live >= 0) live = win.live;
    JsonValue row = JsonValue::object();
    row.set("t_ms", JsonValue(static_cast<double>(w) * window_ms_));
    row.set("issued_per_s",
            JsonValue(static_cast<double>(win.issued) * per_s));
    row.set("lookups_per_s",
            JsonValue(static_cast<double>(win.completed) * per_s));
    row.set("failures_per_s",
            JsonValue(static_cast<double>(win.failures) * per_s));
    row.set("messages_per_s",
            JsonValue(static_cast<double>(win.messages) * per_s));
    row.set("mean_latency_ms",
            JsonValue(win.completed > 0
                          ? win.latency_sum_ms /
                                static_cast<double>(win.completed)
                          : 0.0));
    row.set("mean_queue_ms",
            JsonValue(win.messages > 0
                          ? win.queue_sum_ms /
                                static_cast<double>(win.messages)
                          : 0.0));
    row.set("live_nodes", JsonValue(live));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace canon::telemetry
