// Failure injection: what goes wrong, and when.
//
// A FaultPlan is the declarative description of an injected-failure
// scenario: fail-stop crashes (optionally scheduled at a virtual time),
// revivals, and a transient message-drop probability. Plans are inert
// data; materialize() turns the crash/revive schedule into the FailureSet
// the failure-aware walk consults per hop, journaling every applied
// event (telemetry/journal.h) so an experiment's fault history is a
// replayable artifact.
//
// Message drops are modelled per forwarding attempt: the engine derives a
// DropRoller per query from the plan's drop seed (forked by query index),
// so the drop pattern — like the workload itself — is a pure function of
// the seed, never of the thread count.
#ifndef CANON_OVERLAY_FAULT_PLAN_H
#define CANON_OVERLAY_FAULT_PLAN_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "overlay/overlay_network.h"

namespace canon::telemetry {
class EventJournal;
}  // namespace canon::telemetry

namespace canon {

/// Live/dead state for the population; nodes are alive by default.
class FailureSet {
 public:
  explicit FailureSet(std::size_t node_count) : dead_(node_count, false) {}

  void kill(std::uint32_t node) {
    if (!dead_[node]) {
      dead_[node] = true;
      ++dead_count_;
    }
  }
  void revive(std::uint32_t node) {
    if (dead_[node]) {
      dead_[node] = false;
      --dead_count_;
    }
  }
  bool dead(std::uint32_t node) const { return dead_[node]; }
  std::size_t size() const { return dead_.size(); }
  std::size_t dead_count() const { return dead_count_; }
  /// O(1): the failure-aware walk consults this per query to skip the
  /// fault-only bookkeeping on fully-live populations.
  bool any() const { return dead_count_ > 0; }

 private:
  std::vector<bool> dead_;
  std::size_t dead_count_ = 0;
};

/// One scheduled fail-stop or revival.
struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kRevive };

  std::uint64_t at = 0;    ///< virtual time (experiment-defined units)
  std::uint32_t node = 0;  ///< node index
  Kind kind = Kind::kCrash;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// See the file comment. An empty plan injects nothing; the engine's
/// resilient batch mode is then behaviourally identical to the plain one.
class FaultPlan {
 public:
  /// Schedules a fail-stop of `node` at virtual time `at`.
  void crash(std::uint32_t node, std::uint64_t at = 0);

  /// Schedules `node` to come back at virtual time `at`.
  void revive(std::uint32_t node, std::uint64_t at = 0);

  /// Every forwarding attempt is independently dropped with probability
  /// `probability`; `seed` roots the per-query drop streams.
  void set_drop(double probability, std::uint64_t seed = kDefaultDropSeed);

  double drop_probability() const { return drop_probability_; }
  std::uint64_t drop_seed() const { return drop_seed_; }
  bool has_drops() const { return drop_probability_ > 0; }

  /// True iff the plan injects nothing at all.
  bool empty() const { return events_.empty() && drop_probability_ == 0; }

  /// The schedule, in insertion order (materialize applies it stably
  /// sorted by time).
  std::span<const FaultEvent> events() const { return events_; }

  /// Applies every event with `at` <= `until` in (time, insertion) order
  /// and returns the resulting live/dead state. When `journal` is given,
  /// each applied event is recorded as a "crash" / "revive" journal line
  /// carrying the node index and its overlay ID.
  static constexpr std::uint64_t kWholeSchedule = ~std::uint64_t{0};
  FailureSet materialize(const OverlayNetwork& net,
                         telemetry::EventJournal* journal = nullptr,
                         std::uint64_t until = kWholeSchedule) const;

  /// The standard kill-fraction scenario: node i crashes iff its hash
  /// under `seed` falls below `fraction`. Kill sets are *nested* in the
  /// fraction — every node dead at 10% is also dead at 30% under the same
  /// seed — which is what makes success-vs-fraction curves (and the
  /// monotonicity tests) well-behaved.
  static FaultPlan fail_fraction(std::size_t node_count, double fraction,
                                 std::uint64_t seed);

  static constexpr std::uint64_t kDefaultDropSeed = 0x64726f7021ULL;

 private:
  std::vector<FaultEvent> events_;
  double drop_probability_ = 0;
  std::uint64_t drop_seed_ = kDefaultDropSeed;
};

/// Per-query source of forwarding-drop decisions. Value type; the engine
/// builds one per query from the plan's drop seed forked by query index.
class DropRoller {
 public:
  DropRoller() = default;
  DropRoller(double probability, Rng rng)
      : probability_(probability), rng_(rng) {}

  bool active() const { return probability_ > 0; }

  /// Rolls one forwarding attempt; true = the message was lost.
  bool drop() {
    return probability_ > 0 && rng_.uniform_double() < probability_;
  }

 private:
  double probability_ = 0;
  Rng rng_{0};
};

}  // namespace canon

#endif  // CANON_OVERLAY_FAULT_PLAN_H
