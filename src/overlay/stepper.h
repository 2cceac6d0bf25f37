// The per-hop routing contract: one hop kernel per metric.
//
// Routing in every Canon family is plain greedy routing on the family's
// metric over the union of a node's links (Section 2.2). The one decision
// that differs between families — which neighbor to forward to — is
// written once per metric as a *hop kernel*: RingKernel, LookaheadKernel
// (Symphony's two-hop plans over the ring kernel) and XorKernel
// (overlay/routing.h), GroupKernel (canon/proximity.h), CanKernel
// (dht/can.h) and CanCanKernel (canon/cancan.h). Every routing mode is a
// driver over a kernel, so the modes agree by construction:
//
// * the scalar walk (overlay/greedy_walk.h) — route / route_into / probe,
//   and, given a FailureSet and DropRoller, the failure-aware router;
// * the interleaved batch loop (overlay/batch_probe.h) — probe_batch;
// * the Stepper adapter below — the message simulator's resumable hop.
//
// Kernel contract:
//
//   struct Kernel {
//     using Score = ...;  // totally ordered; Score{} means "no progress"
//     const OverlayNetwork& net() const;
//     const LinkTable& links() const;
//     int max_hops() const;  // the hop guard
//     template <typename Pick, typename Ctx>
//     Hop rank(const HopSite& site, NodeId key, std::uint64_t& state,
//              Pick& pick, const Ctx& ctx) const;
//   };
//
// * rank() either offers the candidates at `site` to `pick`, each with
//   its Score (higher is better; the first-offered wins ties; only scores
//   above the tier's floor, Score{} unless pick.floor() raised it, count),
//   and
//   returns Hop::kForward — or reports that the lookup ends at `site.at`:
//   kArrived (the correct destination) or kStuck. Candidates come in
//   tiers; a kernel asks its next tier only while `pick.found()` is
//   false. A tier opened with pick.tier(..., /*plain=*/false) is a
//   *second tier*, consulted only under faults (Ctx::kActive): the ring
//   leaf set, the group sidestep, the CAN XOR-closer neighbor.
// * `state` is a small per-lookup word, 0 on the first hop (the group
//   target, CAN's target and previous node, Can-Can's stage domain and
//   previous node, the lookahead's committed second step). rank() may
//   update it; drivers commit it only when the hop is taken.
// * `ctx` is NoFaults or the failure-aware walk's Faults: it decides
//   which candidates the pick skips and whether targets are the live
//   ones. Kernels are immutable and safe to share across threads.
//
// Stepper contract (the message simulator's view of a kernel):
//
// * step(at, key, state, out) fills `out` with up to out.size() candidate
//   next hops, best first, and returns how many it wrote plus the
//   done/ok verdict. Candidate 0 is the hop the family's route() takes,
//   so always taking candidate 0 walks route()'s path hop for hop. Later
//   candidates are the runners-up of the same tier, for α-parallel
//   speculative probes.
// * done=true means the lookup terminates at `at` (count is then 0); ok
//   tells whether `at` is the correct destination.
// * `state` is the kernel's per-lookup word: callers running speculative
//   probes pass each probe a copy and adopt the winner's copy when the
//   frontier advances.
#ifndef CANON_OVERLAY_STEPPER_H
#define CANON_OVERLAY_STEPPER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/ids.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon {

/// Verdict of one resumable routing step. See the file comment.
struct StepResult {
  int count = 0;     ///< candidates written, ranked best-first
  bool done = false; ///< the lookup terminates at the queried node
  bool ok = false;   ///< terminal node is the correct destination
};

/// Widest candidate ranking any caller asks for: α-parallel lookups fan
/// out to at most this many speculative probes per step.
inline constexpr int kMaxStepCandidates = 8;

/// The resumable one-hop decision. See the file comment for the contract.
using Stepper = std::function<StepResult(
    NodeIndex at, NodeId key, std::uint64_t& state,
    std::span<NodeIndex> out)>;

/// A kernel's verdict at one node.
enum class Hop : std::uint8_t { kForward, kArrived, kStuck };

/// The node a lookup sits at, with its ID and its CSR row: targets[j] is
/// a neighbor and ids[j] that neighbor's NodeId.
struct HopSite {
  NodeIndex at;
  NodeId id;
  const NodeIndex* targets;
  const NodeId* ids;
  std::size_t count;
};

inline HopSite hop_site(const LinkTable& links, NodeIndex at, NodeId id) {
  const auto [begin, end] = links.row_bounds(at);
  return {at, id, links.targets_data() + begin,
          links.target_ids_data() + begin, end - begin};
}

/// Fault-free context: every candidate counts, targets are structural.
struct NoFaults {
  static constexpr bool kActive = false;
  bool skip(NodeIndex) const { return false; }
};

namespace detail {

inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/// The drivers' pick: argbest of the offered candidates (strict `>`, so
/// the first-best wins ties) over the candidates `ctx` does not skip.
/// Under faults it also remembers the candidate ranked first with nothing
/// skipped, over the plain tiers: a hop to anything else is a fallback
/// hop.
template <typename Score, typename Ctx>
class BestPick {
 public:
  BestPick(const HopSite& site, const Ctx& ctx)
      : ctx_(ctx), targets_(site.targets), ids_(site.ids) {}

  /// Opens the next tier over `targets`/`ids`; see the file comment.
  void tier(const NodeIndex* targets, const NodeId* ids, bool plain) {
    targets_ = targets;
    ids_ = ids;
    if constexpr (Ctx::kActive) {
      if (!plain || has_first_) tracking_first_ = false;
    }
  }

  /// Raises the bar of the current tier: only offers scoring above
  /// `score` count (XorKernel: "strictly closer than this node").
  void floor(Score score) {
    best_ = score;
    if constexpr (Ctx::kActive) {
      if (tracking_first_) first_score_ = score;
    }
  }

  void offer(Score score, std::size_t j) {
    if constexpr (Ctx::kActive) {
      if (tracking_first_ && score > first_score_) {
        first_score_ = score;
        has_first_ = true;
        first_node_ = targets_[j];
      }
    }
    if (score > best_) {
      if constexpr (Ctx::kActive) {
        if (ctx_.skip(targets_[j])) return;
      }
      best_ = score;
      best_j_ = j;
    }
  }

  bool found() const { return best_j_ != kNoPick; }
  NodeIndex node() const { return targets_[best_j_]; }
  NodeId id() const { return ids_[best_j_]; }

  /// True iff the winner is not the candidate ranked first with nothing
  /// skipped (always false without faults).
  bool fallback() const {
    if constexpr (Ctx::kActive) {
      return !has_first_ || node() != first_node_;
    } else {
      return false;
    }
  }

 private:
  const Ctx& ctx_;
  const NodeIndex* targets_;
  const NodeId* ids_;
  Score best_{};
  std::size_t best_j_ = kNoPick;
  bool tracking_first_ = true;
  bool has_first_ = false;
  Score first_score_{};
  NodeIndex first_node_ = 0;
};

/// The stepper's pick: the best `cap` offers, score descending and
/// first-offered first on ties, so candidate 0 is BestPick's winner.
template <typename Score>
class TopPick {
 public:
  TopPick(const HopSite& site, int cap)
      : cap_(cap < 1 ? 1 : cap < kMaxStepCandidates ? cap : kMaxStepCandidates),
        targets_(site.targets) {}

  void tier(const NodeIndex* targets, const NodeId*, bool) {
    targets_ = targets;
  }

  void floor(Score score) { floor_ = score; }

  void offer(Score score, std::size_t j) {
    if (!(score > floor_)) return;
    int pos = count_ < cap_ ? count_ : cap_ - 1;
    if (count_ < cap_) {
      ++count_;
    } else if (!(score > score_[cap_ - 1])) {
      return;
    }
    while (pos > 0 && score_[pos - 1] < score) {
      score_[pos] = score_[pos - 1];
      node_[pos] = node_[pos - 1];
      --pos;
    }
    score_[pos] = score;
    node_[pos] = targets_[j];
  }

  bool found() const { return count_ > 0; }

  int emit(std::span<NodeIndex> out) const {
    const int n = std::min(count_, static_cast<int>(out.size()));
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = node_[i];
    return n;
  }

 private:
  int cap_;
  int count_ = 0;
  const NodeIndex* targets_;
  Score floor_{};
  Score score_[kMaxStepCandidates];
  NodeIndex node_[kMaxStepCandidates];
};

}  // namespace detail

/// The Stepper adapter: any kernel, ranked fault-free. The closure holds
/// a copy of the kernel (borrowed net and links, shared auxiliary
/// structures).
template <typename Kernel>
Stepper kernel_stepper(Kernel kernel) {
  return [kernel = std::move(kernel)](
             NodeIndex at, NodeId key, std::uint64_t& state,
             std::span<NodeIndex> out) -> StepResult {
    const HopSite site = hop_site(kernel.links(), at, kernel.net().id(at));
    detail::TopPick<typename Kernel::Score> pick(
        site, static_cast<int>(out.size()));
    const Hop hop = kernel.rank(site, key, state, pick, NoFaults{});
    if (hop != Hop::kForward) return {0, true, hop == Hop::kArrived};
    return {pick.emit(out), false, false};
  };
}

}  // namespace canon

#endif  // CANON_OVERLAY_STEPPER_H
