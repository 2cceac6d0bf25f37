#include "dht/xor_util.h"

#include <algorithm>
#include <stdexcept>

namespace canon {

std::uint32_t xor_closest_in_range(const OverlayNetwork& net,
                                   const RingView& ring, NodeId lo,
                                   std::uint64_t size, NodeId key) {
  if (size == 0 || (size & (size - 1)) != 0 || (lo % size) != 0) {
    throw std::invalid_argument("xor_closest_in_range: unaligned range");
  }
  const std::vector<NodeId>& ids = net.ids();
  const auto members = ring.members();
  const auto id_less = [&ids](NodeIndex m, NodeId k) { return ids[m] < k; };
  const auto less_id = [&ids](NodeId k, NodeIndex m) { return k < ids[m]; };
  // Aligned ranges never wrap in ID space, so the candidates occupy the
  // contiguous positions [first, last).
  auto first = std::lower_bound(members.begin(), members.end(), lo, id_less);
  auto last = std::upper_bound(first, members.end(), lo + (size - 1), less_id);
  if (first == last) return RingView::kNone;

  // Every candidate shares the prefix above the highest bit where the
  // first and last differ; split there, preferring the half whose bit
  // matches the key. Both halves are non-empty, so each search shrinks
  // the candidate positions.
  while (last - first > 1) {
    const NodeId a = ids[*first];
    const NodeId b = ids[*(last - 1)];
    const std::uint64_t half = std::bit_floor(a ^ b);
    const NodeId split = b & ~(half - 1);  // first ID of the upper half
    const auto mid = std::lower_bound(first, last, split, id_less);
    if ((key & half) != 0) {
      first = mid;
    } else {
      last = mid;
    }
  }
  return *first;
}

}  // namespace canon
