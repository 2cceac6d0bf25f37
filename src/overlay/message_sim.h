// Message-granularity discrete-event simulation of α-parallel lookups.
//
// The structural experiments elsewhere in this library evaluate paths one
// at a time; MessageSimulator runs many lookups *concurrently* against a
// link structure — the engine behind the paper's load-homogeneity claim
// (a hierarchical Canon DHT keeps the flat design's uniform routing load),
// crash curves, and congestion knees. It models each in-flight lookup as a
// *sequence of timestamped messages* through per-node bounded inboxes:
//
// * Iterative, source-coordinated rounds (the Kademlia shape): the lookup
//   holds a frontier node and a ranked candidate list from the family's
//   Stepper (overlay/stepper.h). Each round it keeps up to α REQUEST
//   probes outstanding against the best unresolved candidates.
// * A REQUEST pays link latency (the HopCost callback, e.g. a transit-stub
//   LatencyOracle lookup; default_hop_ms otherwise), lands in the target's
//   bounded inbox (overflow ⇒ the message is dropped), waits for the node
//   to drain ahead-of-it work, pays service_ms, and sends a RESPONSE
//   carrying the step verdict back over the same link.
// * Every probe attempt arms a timeout (timeout_ms, multiplied by
//   `backoff` per retry). A probe whose response never arrives — crashed
//   node per the FaultPlan schedule, dropped request/response leg per the
//   plan's drop probability, inbox overflow, or plain congestion — is
//   resent up to retry_budget times, then marked failed and replaced by
//   the next ranked candidate.
// * The frontier advances via the *best-ranked* candidate that responds
//   (candidate 0 unless it permanently failed, then candidate 1, ...), so
//   with α=1 and no faults the frontier walks exactly the family's greedy
//   chain — hop counts match the QueryEngine probe on the same workload —
//   while α>1 buys warm backups at the cost of speculative load.
//
// Determinism contract: the engine is serial; its stable monotone event
// queue (overlay/event_queue.h) pops events in time order and events at
// the same time in the order they were scheduled, so simultaneous events
// resolve identically on every run; drop decisions come from RNG streams
// forked per message attempt (root seed → fork(lookup) → fork(attempt));
// nothing reads the wall clock or thread count. Reports derived from a
// run are therefore byte-identical at any --threads. The clock never runs
// backwards: a submission before now_ms(), or a link latency that is
// negative or NaN, throws instead of being scheduled in the past.
//
// Observers attach as one SimSinks bundle (below): raw pointers to the
// caller-owned sinks plus the options that only mean something when a
// sink is present, validated once at attach() time.
//
//   telemetry::TimeSeriesRecorder series(50.0);
//   SimSinks sinks;
//   sinks.timeseries = &series;
//   sinks.fault_plan = &plan;
//   sinks.snapshot_top_k = 5;       // needs sinks.journal
//   sim.attach(sinks);              // validates, then installs atomically
#ifndef CANON_OVERLAY_MESSAGE_SIM_H
#define CANON_OVERLAY_MESSAGE_SIM_H

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "overlay/event_queue.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"
#include "telemetry/load_stats.h"
#include "telemetry/metrics.h"

namespace canon::telemetry {
class EventJournal;        // telemetry/journal.h
class RecordingTraceSink;  // telemetry/trace.h
class TimeSeriesRecorder;  // telemetry/timeseries.h
}  // namespace canon::telemetry

namespace canon {

/// Everything a simulator run can observe or be perturbed by, in one
/// aggregate. All pointers are borrowed: the caller keeps the sinks alive
/// for the simulator's lifetime. Attaching replaces the whole previous
/// bundle (attach(SimSinks{}) detaches everything).
struct SimSinks {
  /// Per-hop route tracing (begin/on_hop/end, keyed by lookup id). Each
  /// hop carries the request leg's link latency and its inbox wait.
  telemetry::RecordingTraceSink* trace = nullptr;

  /// Event journal: lookup failures, applied crash/revive events, load
  /// snapshots.
  telemetry::EventJournal* journal = nullptr;

  /// Windowed curves over the simulated clock: submissions, completions,
  /// per-message queueing, live-node count.
  telemetry::TimeSeriesRecorder* timeseries = nullptr;

  /// Crash/revive schedule applied on the simulated clock, and the
  /// per-message-leg drop probability.
  const FaultPlan* fault_plan = nullptr;

  /// Every completed lookup's frontier path, tallied for
  /// domain-confinement and hotspot reports.
  telemetry::LoadAccountant* load = nullptr;

  /// Emit a load_snapshot journal line with the top-k loaded nodes every
  /// snapshot_window_ms of simulated time (<= 0 disables). Snapshots only
  /// emit while a journal is attached.
  int snapshot_top_k = 0;
  double snapshot_window_ms = 50.0;

  /// Validates the option fields; attach() calls this once. Throws
  /// std::invalid_argument on a bundle that could only be a bug.
  void validate() const {
    if (snapshot_window_ms <= 0) {
      throw std::invalid_argument(
          "SimSinks: snapshot_window_ms must be > 0");
    }
  }
};

struct MessageSimConfig {
  /// Serial cost for a node to service one request (ms).
  double service_ms = 0.05;
  /// Per-message link latency when no HopCost callback is supplied.
  /// A HopCost must likewise return a latency >= 0 (never NaN).
  double default_hop_ms = 1.0;
  /// Outstanding probes per round (Kademlia's α). 1 = the iterative
  /// baseline; at most kMaxStepCandidates, the ranked candidates the
  /// stepper returns per hop — the pool α probes draw from and timeouts
  /// fall back to.
  int alpha = 1;
  /// Bounded inbox: a request finding this many messages queued ahead of
  /// it at the target is dropped (counts as inbox_drops, recovers via the
  /// sender's timeout).
  int inbox_capacity = 64;
  /// First-attempt response deadline; attempt a waits
  /// timeout_ms * backoff^a.
  double timeout_ms = 8.0;
  double backoff = 2.0;
  /// Sends per candidate before it is marked failed (kRetryBudget: the
  /// ladder the resilient routing cores use). At most 65536: an event
  /// stamps its attempt in 16 bits.
  int retry_budget = kRetryBudget;
};

class MessageSimulator {
 public:
  /// `stepper` empty selects the greedy-clockwise ring stepper; pass a
  /// family's stepper from registry::family(name).make_stepper for any
  /// other family. `latency` empty charges default_hop_ms per message.
  /// Throws std::invalid_argument on a config out of range (including a
  /// negative or non-finite default_hop_ms).
  MessageSimulator(const OverlayNetwork& net, const LinkTable& links,
                   Stepper stepper = {}, HopCost latency = {},
                   MessageSimConfig config = {});

  struct LookupResult {
    std::uint32_t from = 0;
    NodeId key = 0;
    double issued_ms = 0;
    double completed_ms = -1;  ///< -1 until completed
    int hops = 0;              ///< frontier advances
    bool ok = false;
    int timeouts = 0;  ///< probe attempts that expired
    int retries = 0;   ///< expired attempts that were resent

    double latency_ms() const { return completed_ms - issued_ms; }
  };

  /// Whole-run message accounting.
  struct Totals {
    std::uint64_t sent = 0;        ///< REQUEST attempts put on the wire
    std::uint64_t serviced = 0;    ///< requests a live node processed
    std::uint64_t timeouts = 0;    ///< attempts that expired
    std::uint64_t retries = 0;     ///< expired attempts resent
    std::uint64_t link_drops = 0;  ///< request/response legs the plan dropped
    std::uint64_t inbox_drops = 0; ///< requests bounced off a full inbox
    std::uint64_t failures = 0;    ///< lookups completed unsuccessfully

    /// The engine's own profile, as deterministic as the counts above:
    /// events popped per kind, and the most ever queued at once.
    std::uint64_t start_events = 0;     ///< one per submitted lookup
    std::uint64_t arrive_events = 0;    ///< request legs that landed
    std::uint64_t response_events = 0;  ///< response legs that landed
    std::uint64_t timeout_events = 0;   ///< one per attempt, stale or not
    std::uint64_t queue_high_water = 0; ///< most events queued at once
  };

  /// Schedules a lookup; returns its index into lookups(). Throws
  /// std::out_of_range on a bad node and std::invalid_argument on an
  /// `at_ms` that is not finite or lies before now_ms().
  int submit(std::uint32_t from, NodeId key, double at_ms);

  /// Drains the event queue; every submitted lookup completes (ok or not).
  void run();

  const std::vector<LookupResult>& lookups() const { return lookups_; }
  const Totals& totals() const { return totals_; }

  /// Requests serviced by each node over the run (routing load).
  const std::vector<std::uint64_t>& node_load() const { return load_; }

  /// Deepest inbox each node saw (messages queued ahead + the arrival).
  const std::vector<std::uint32_t>& max_queue_depth() const {
    return max_depth_;
  }

  /// Simulated clock after run().
  double now_ms() const { return now_; }

  /// Installs the observer bundle (SimSinks above); replaces the previous
  /// one, validates once. A trace or time-series sink attached after
  /// submit() is backfilled: pending lookups get their begin_lookup and
  /// issued samples. Attach before run().
  void attach(const SimSinks& sinks);

  const SimSinks& sinks() const { return sinks_; }

  /// Live nodes right now (population minus crashed).
  std::size_t live_nodes() const { return dead_.size() - dead_.dead_count(); }

 private:
  enum class Kind : std::uint8_t { kStart, kArrive, kResponse, kTimeout };

  struct Event {
    std::uint64_t key = 0;      ///< time_key of the event's time
    std::int32_t index = -1;    ///< the lookup (kStart) or the probe
    std::uint16_t attempt = 0;  ///< staleness stamp: the probe's attempt
    Kind kind = Kind::kStart;
  };
  static_assert(sizeof(Event) == 16);

  struct Probe {
    std::int32_t lookup = -1;
    std::int32_t round = 0;
    std::int32_t cand_index = 0;
    NodeIndex target = 0;
    NodeIndex sent_from = 0;  ///< frontier at send time (response link)
    std::int32_t attempt = 0;
    bool responded = false;
    bool failed = false;
    bool response_lost = false;  ///< this attempt's response leg is doomed
    StepResult result;
    /// The answered request's wait in the target's inbox, for traces.
    /// A float fills the padding before state_after: probes are the
    /// simulator's largest allocation.
    float inbox_ms = 0;
    std::uint64_t state_after = 0;
    std::array<NodeIndex, kMaxStepCandidates> next_cands{};
  };

  struct Lookup {
    NodeIndex frontier = 0;
    std::uint64_t state = 0;
    std::int32_t round = 0;
    std::int32_t cand_count = 0;
    std::int32_t launched = 0;
    std::array<NodeIndex, kMaxStepCandidates> cands{};
    std::array<std::int32_t, kMaxStepCandidates> round_probes{};
    std::uint64_t attempt_seq = 0;  ///< forks the per-message drop streams
    std::vector<std::uint32_t> path;  ///< frontier chain, source first
  };

  void push_event(double at_ms, Kind kind, std::int32_t index,
                  std::int32_t attempt = 0);
  double link_ms(NodeIndex a, NodeIndex b) const;
  void apply_faults_until(double now);
  void maybe_snapshot(double now);

  /// Queues one request arriving at `node` at `at_ms` (load, depth);
  /// returns the time its service starts, or a negative value when the
  /// message was lost (dead node or inbox overflow). Service completes
  /// config_.service_ms later.
  double service(NodeIndex node, double at_ms);

  void start_lookup(std::int32_t lookup, double now);
  void launch_candidate(std::int32_t lookup, std::int32_t cand_index,
                        double now);
  void send_probe(std::int32_t probe, double now);
  void on_arrive(std::int32_t probe, std::int32_t attempt, double now);
  void on_response(std::int32_t probe, std::int32_t attempt, double now);
  void on_timeout(std::int32_t probe, std::int32_t attempt, double now);

  /// Advances/fails the lookup if its best-ranked candidate is decided.
  void check_round(std::int32_t lookup, double now);
  void advance(std::int32_t lookup, std::int32_t probe, double now);
  void begin_round(std::int32_t lookup, double now);
  void complete(std::int32_t lookup, bool ok, double now,
                NodeIndex terminal);

  bool lookup_open(std::int32_t lookup) const {
    return lookups_[static_cast<std::size_t>(lookup)].completed_ms < 0;
  }

  const OverlayNetwork* net_;
  const LinkTable* links_;
  Stepper stepper_;
  HopCost latency_;
  MessageSimConfig config_;
  int hop_guard_;

  MonotoneEventQueue<Event> queue_;
  double now_ = 0;

  std::vector<LookupResult> lookups_;
  std::vector<Lookup> state_;
  std::vector<Probe> probes_;
  Totals totals_;

  std::vector<std::uint64_t> load_;
  std::vector<double> busy_until_;
  std::vector<std::uint32_t> max_depth_;

  FailureSet dead_;
  std::vector<FaultEvent> fault_schedule_;  // stably sorted by time
  std::size_t next_fault_ = 0;
  bool rolling_drops_ = false;
  double drop_p_ = 0;
  Rng drop_base_{0};

  SimSinks sinks_;
  std::int64_t snapshots_emitted_ = 0;
  /// Sink-issued lookup ids, parallel to lookups_; kUntraced until a
  /// trace sink has seen the lookup (sinks may issue id 0).
  static constexpr std::uint64_t kUntraced = ~std::uint64_t{0};
  std::vector<std::uint64_t> trace_ids_;
  telemetry::LoadAccountant::Shard load_shard_;  // merged when run() drains

  telemetry::Counter* messages_counter_;
  telemetry::Counter* timeouts_counter_;
  telemetry::Counter* retries_counter_;
  telemetry::LatencyHistogram* queue_hist_;
};

/// Nearest-rank percentile (q in [0,1]) of completed lookups' end-to-end
/// latency; 0 when none completed. Pure function of the results array.
double lookup_latency_percentile(
    std::span<const MessageSimulator::LookupResult> lookups, double q);

}  // namespace canon

#endif  // CANON_OVERLAY_MESSAGE_SIM_H
