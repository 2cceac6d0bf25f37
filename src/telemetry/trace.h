// Route tracing: per-hop event capture for any lookup in the stack.
//
// The batch QueryEngine and the MessageSimulator accept an optional
// RecordingTraceSink. When one is attached, every routed lookup emits
// begin_lookup / on_hop* / end_lookup events carrying the chosen link, how
// many candidates the forwarding node had, the hierarchy level the hop
// happened at (the depth of the lowest common domain of its endpoints, as
// computed against the DomainTree), and — in the message simulator — the
// inbox wait and network latency of the hop. With no sink attached (the
// default) the instrumented loops pay one pointer test per hop.
//
// The "level" of a hop follows the paper's convergence vocabulary: a hop
// at level l stays inside a common level-l domain but crosses level-(l+1)
// domain boundaries. Deep levels are local hops; level 0 hops cross
// top-level domains. Summing a trace's hops over levels yields its total
// hop count, which is what the per-level breakdowns in the fig* reports
// rely on.
#ifndef CANON_TELEMETRY_TRACE_H
#define CANON_TELEMETRY_TRACE_H

#include <cstdint>
#include <vector>

namespace canon::telemetry {

/// One forwarding step of one lookup.
struct HopRecord {
  std::uint64_t lookup = 0;      ///< id returned by begin_lookup
  std::uint32_t from = 0;        ///< node index forwarding the message
  std::uint32_t to = 0;          ///< node index receiving it
  int hop_index = 0;             ///< 0-based position along the path
  int level = -1;                ///< LCA depth of (from, to); -1 if unknown
  /// Candidates at `from`: its out-degree (the row its kernel ranked) in
  /// QueryEngine traces, the ranked candidates in the message simulator.
  std::uint32_t candidates = 0;
  double queue_ms = 0;           ///< wait in `to`'s inbox (simulator only)
  double hop_ms = 0;             ///< modeled network latency of the hop
};

/// Records complete traces in memory for replay and aggregate breakdowns.
/// Lookups may interleave (the message simulator runs many concurrently):
/// events are keyed by HopRecord::lookup.
class RecordingTraceSink {
 public:
  struct LookupTrace {
    std::uint32_t from = 0;
    std::uint64_t key = 0;
    bool done = false;
    bool ok = false;
    std::uint32_t terminal = 0;
    std::vector<HopRecord> hops;
  };

  /// Announces a lookup from node `from` towards `key`; the returned id
  /// tags all subsequent events of this lookup.
  std::uint64_t begin_lookup(std::uint32_t from, std::uint64_t key);
  void on_hop(const HopRecord& hop);
  void end_lookup(std::uint64_t lookup, bool ok, std::uint32_t terminal);

  const std::vector<LookupTrace>& lookups() const { return lookups_; }
  void clear() { lookups_.clear(); }

  /// Total hops across all recorded lookups.
  std::uint64_t total_hops() const;

  /// Hop counts indexed by hierarchy level (index l = hops at LCA depth l).
  /// Hops with unknown level (-1) are excluded; with level tracking on,
  /// the vector's sum equals total_hops(). Result is empty when no hop
  /// carries a level.
  std::vector<std::uint64_t> hops_by_level() const;

  /// Mean queueing delay (ms) over all recorded hops; 0 when empty.
  double mean_queue_ms() const;

 private:
  std::vector<LookupTrace> lookups_;
};

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_TRACE_H
