// One membership change to an ID-sorted population, as seen by the node
// indices, and the splices that carry index-aligned arrays across it.
//
// Nodes are indexed 0..n-1 in ascending ID order, so one join or leave
// moves every node past the change by one index and leaves the rest in
// place. Structures derived from the previous population (the overlay's
// arrays, the domain tree, the link table) copy their old contents in
// blocks through this map instead of being rebuilt.
#ifndef CANON_COMMON_SPLICE_H
#define CANON_COMMON_SPLICE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"

namespace canon {

/// A node inserted at index `at` of the new order, or node `at` of the old
/// order erased. Every other node keeps its rank; its index shifts by one
/// past `at`.
struct IndexChange {
  NodeIndex at = 0;
  bool insert = true;

  /// Nodes after the change, given the count before it.
  std::size_t next_size(std::size_t prev_size) const {
    return insert ? prev_size + 1 : prev_size - 1;
  }
  /// The new index of old node `v` (v != at when erasing).
  NodeIndex next(NodeIndex v) const {
    return insert ? v + (v >= at) : v - (v > at);
  }
  /// The old index of new node `m` (m != at when inserting).
  NodeIndex prev(NodeIndex m) const {
    return insert ? m - (m > at) : m + (m >= at);
  }
};

/// `v` with `value` inserted at `change.at`, or with element `change.at`
/// erased (`value` unused), at exact capacity.
template <typename T>
std::vector<T> splice(const std::vector<T>& v, IndexChange change,
                      const T& value) {
  std::vector<T> out;
  out.reserve(change.next_size(v.size()));
  out.insert(out.end(), v.begin(), v.begin() + change.at);
  if (change.insert) out.push_back(value);
  out.insert(out.end(), v.begin() + change.at + (change.insert ? 0 : 1),
             v.end());
  return out;
}

/// A pool of variable-length rows in CSR form (row i occupies
/// values[offsets[i] .. offsets[i + 1])) with `row` inserted as row
/// `change.at`, or with row `change.at` erased (`row` unused), written to
/// `out_offsets`/`out_values` at exact capacity.
template <typename T>
void splice_rows(std::span<const std::uint32_t> offsets,
                 std::span<const T> values, IndexChange change,
                 std::span<const T> row, std::vector<std::uint32_t>& out_offsets,
                 std::vector<T>& out_values) {
  const std::size_t rows = change.next_size(offsets.size() - 1);
  const std::uint32_t cut = offsets[change.at];
  const std::uint32_t added =
      change.insert ? static_cast<std::uint32_t>(row.size()) : 0;
  const std::uint32_t removed =
      change.insert ? 0 : offsets[change.at + 1] - cut;
  out_offsets.clear();
  out_offsets.reserve(rows + 1);
  out_offsets.insert(out_offsets.end(), offsets.begin(),
                     offsets.begin() + change.at + 1);
  for (std::size_t m = change.at; m < rows; ++m) {
    const auto i = static_cast<NodeIndex>(m);
    out_offsets.push_back(change.insert && i == change.at
                              ? cut + added
                              : offsets[change.prev(i) + 1] + added - removed);
  }
  out_values.clear();
  out_values.reserve(values.size() + added - removed);
  out_values.insert(out_values.end(), values.begin(), values.begin() + cut);
  out_values.insert(out_values.end(), row.begin(), row.begin() + added);
  out_values.insert(out_values.end(), values.begin() + cut + removed,
                    values.end());
}

}  // namespace canon

#endif  // CANON_COMMON_SPLICE_H
