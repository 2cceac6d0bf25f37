// Interleaved batch probe driver: the memory-level-parallelism engine
// behind GreedyRouter::probe_batch, for every hop kernel.
//
// Greedy DHT routing is a chain of dependent random accesses — each hop's
// CSR row address is known only after the previous row is scanned — so a
// single lookup cannot hide DRAM latency. A *batch* of lookups can: the
// driver keeps a window of W independent queries ("lanes") in flight and
// advances each by one greedy hop per round, in two passes:
//
//   fetch pass   — every lane reads its row bounds (prefetched at the end
//                  of the previous round) and issues prefetches for the
//                  row payload (inline NodeIds + target indices).
//   advance pass — every lane hands its now-arriving row to the kernel's
//                  rank(), takes the winner exactly as the scalar walk
//                  would, and prefetches the next node's row bounds.
//
// This is classic group prefetching (a static sibling of AMAC): by the
// time lane i's scan runs, its row has been streaming in while the other
// W-1 lanes were scanned, so one lane's cache miss overlaps the others'
// compute. Finished lanes retire their RouteProbe and refill from the
// remaining queries, keeping the window full until the batch drains.
//
// Each lane carries the kernel's per-lookup state word and the current
// node's NodeId, taken from the winning row entry (ids[j] is
// net.id(targets[j]) by CSR construction), so the steady-state hop never
// touches the overlay's id array; only a fresh lane reads it once.
//
// Determinism: prefetches are scheduling hints and every lane runs the
// scalar walk's hop sequence unchanged, so out[i] is bit-identical to
// probe(queries[i]) at every width — the equivalence contract
// tests/batch_probe_test.cc pins for all families.
//
// Internal header: included by overlay/greedy_walk.h only.
#ifndef CANON_OVERLAY_BATCH_PROBE_H
#define CANON_OVERLAY_BATCH_PROBE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/ids.h"
#include "common/prefetch.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon::detail {

/// Runs `queries` through `kernel` with a window of `width` lanes (clamped
/// to [1, kMaxProbeBatchWidth] and to the batch size). Writes one
/// RouteProbe per query, in query order.
template <typename Kernel>
void interleaved_probe_batch(std::span<const Query> queries,
                             std::span<RouteProbe> out, int width,
                             const Kernel& kernel) {
  struct Lane {
    std::size_t query_index;
    NodeIndex current;
    NodeId cur_id;  // == net.id(current) once need_id clears
    NodeId key;
    std::uint64_t state;
    int hops;
    LinkOffset row_begin;
    LinkOffset row_end;
    bool need_id;
  };
  const OverlayNetwork& net = kernel.net();
  const LinkTable& links = kernel.links();
  const int max_hops = kernel.max_hops();
  const NoFaults ctx;

  const auto begin = [&](Lane& l, std::size_t query_index) {
    const Query& q = queries[query_index];
    l.query_index = query_index;
    l.current = q.from;
    l.key = q.key;
    l.state = 0;
    l.hops = 0;
    l.need_id = true;
    prefetch_ro(net.ids().data() + q.from);
    links.prefetch_row_bounds(q.from);
  };
  const auto fetch = [&](Lane& l) {
    if (l.need_id) {
      l.cur_id = net.id(l.current);
      l.need_id = false;
    }
    const auto [b, e] = links.row_bounds(l.current);
    l.row_begin = b;
    l.row_end = e;
    links.prefetch_row_payload(b, e);
  };
  // One hop of the scalar walk; true = done, `result` is the outcome.
  const auto advance = [&](Lane& l, RouteProbe& result) {
    if (l.hops >= max_hops) {  // the walk's hop-guard exit
      result = {l.current, l.hops, false, true};
      return true;
    }
    const HopSite site{l.current, l.cur_id,
                       links.targets_data() + l.row_begin,
                       links.target_ids_data() + l.row_begin,
                       l.row_end - l.row_begin};
    BestPick<typename Kernel::Score, NoFaults> pick(site, ctx);
    const Hop hop = kernel.rank(site, l.key, l.state, pick, ctx);
    if (hop != Hop::kForward) {
      result = {l.current, l.hops, hop == Hop::kArrived, false};
      return true;
    }
    l.current = pick.node();
    l.cur_id = pick.id();
    ++l.hops;
    links.prefetch_row_bounds(l.current);
    return false;
  };

  const std::size_t n = queries.size();
  const std::size_t w = std::min(
      n, static_cast<std::size_t>(std::clamp(width, 1, kMaxProbeBatchWidth)));
  std::array<Lane, kMaxProbeBatchWidth> lanes;
  std::size_t next = 0;
  std::size_t active = 0;
  for (; active < w; ++active, ++next) begin(lanes[active], next);
  while (active > 0) {
    for (std::size_t i = 0; i < active; ++i) fetch(lanes[i]);
    for (std::size_t i = 0; i < active;) {
      RouteProbe result;
      if (!advance(lanes[i], result)) {
        ++i;
        continue;
      }
      out[lanes[i].query_index] = result;
      if (next < n) {
        // Refill in place; the fresh lane fetches at the top of the next
        // round, so its begin() prefetches get a full round of cover.
        begin(lanes[i], next);
        ++next;
        ++i;
      } else {
        // Batch drained: compact the window (order within the window is
        // irrelevant — lanes are independent and retire by query_index).
        lanes[i] = lanes[--active];
      }
    }
  }
}

}  // namespace canon::detail

#endif  // CANON_OVERLAY_BATCH_PROBE_H
