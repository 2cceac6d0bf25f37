#include "telemetry/trace.h"

#include <stdexcept>

namespace canon::telemetry {

std::uint64_t RecordingTraceSink::begin_lookup(std::uint32_t from,
                                               std::uint64_t key) {
  LookupTrace t;
  t.from = from;
  t.key = key;
  lookups_.push_back(std::move(t));
  return lookups_.size() - 1;
}

void RecordingTraceSink::on_hop(const HopRecord& hop) {
  if (hop.lookup >= lookups_.size()) {
    throw std::out_of_range("RecordingTraceSink::on_hop: unknown lookup");
  }
  lookups_[hop.lookup].hops.push_back(hop);
}

void RecordingTraceSink::end_lookup(std::uint64_t lookup, bool ok,
                                    std::uint32_t terminal) {
  if (lookup >= lookups_.size()) {
    throw std::out_of_range("RecordingTraceSink::end_lookup: unknown lookup");
  }
  LookupTrace& t = lookups_[lookup];
  t.done = true;
  t.ok = ok;
  t.terminal = terminal;
}

std::uint64_t RecordingTraceSink::total_hops() const {
  std::uint64_t n = 0;
  for (const LookupTrace& t : lookups_) n += t.hops.size();
  return n;
}

std::vector<std::uint64_t> RecordingTraceSink::hops_by_level() const {
  std::vector<std::uint64_t> by_level;
  for (const LookupTrace& t : lookups_) {
    for (const HopRecord& h : t.hops) {
      if (h.level < 0) continue;
      if (static_cast<std::size_t>(h.level) >= by_level.size()) {
        by_level.resize(static_cast<std::size_t>(h.level) + 1, 0);
      }
      ++by_level[static_cast<std::size_t>(h.level)];
    }
  }
  return by_level;
}

double RecordingTraceSink::mean_queue_ms() const {
  double sum = 0;
  std::uint64_t n = 0;
  for (const LookupTrace& t : lookups_) {
    for (const HopRecord& h : t.hops) {
      sum += h.queue_ms;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0;
}

}  // namespace canon::telemetry
