// Per-node out-link adjacency produced by the DHT link builders.
//
// The paper counts only out-degree ("the degree of a node refers to its
// out-degree, and does not count incoming edges"); LinkTable mirrors that.
//
// Construction and CSR invariants
// -------------------------------
// Every table is made by LinkTable::build(ids, add_links) (randomized
// builders go through build_forked, below), or derived from one by
// LinkTable::derive: the builder appends each node's out-links to a row,
// and build() sorts the row, drops duplicates and self-links, and
// compacts the whole table into a flat CSR (compressed sparse row)
// layout:
//
//   offsets_  : node_count() + 1 monotone offsets into the flat arrays;
//               node m's neighbors occupy [offsets_[m], offsets_[m + 1]).
//               Offsets are 32-bit LinkOffset values: even 10^7-node
//               populations carry well under 2^32 links, and the compact
//               type halves the per-node offset footprint (build() throws
//               std::length_error past 2^32 - 1 links).
//   targets_  : all neighbor *indices* (NodeIndex), row by row, each row
//               sorted ascending with no duplicates and no self-links.
//   target_ids_: the NodeId of targets_[k] stored at the same position k,
//               so routers read one contiguous array instead of chasing
//               net.id(nb) per candidate.
//
// A table is read-only: there is no edit path. Tests that need a changed
// row build a new table. Dynamic maintenance derives a new table from the
// current one after one join or leave: derive() recomputes the rows the
// change dirtied through the same row rule and copies every maximal run
// of clean rows as one block, shifting its targets by one past the change.
//
// build() runs shard by shard: each shard's rows are compacted into one
// tightly packed chunk as soon as the shard completes, so peak memory
// stays near the final CSR size at any population (see the method
// comment).
#ifndef CANON_OVERLAY_LINK_TABLE_H
#define CANON_OVERLAY_LINK_TABLE_H

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/prefetch.h"
#include "common/rng.h"
#include "common/splice.h"
#include "common/stats.h"
#include "telemetry/mem_stats.h"

namespace canon {

/// Index into the flat CSR arrays (a link count). 32-bit by design: see
/// the file comment.
using LinkOffset = std::uint32_t;

/// One node's out-links as a builder appends them: any order, duplicates
/// and self-links allowed (build() sanitizes).
using LinkRow = std::vector<NodeIndex>;

/// Puts node `m`'s appended row into table form: sorts it, drops
/// duplicates and the self-link, and throws std::out_of_range on a target
/// >= node_count. The one row rule, shared by build() and by the auditor,
/// which recomputes single rows without building a table.
void sanitize_row(NodeIndex m, std::size_t node_count, LinkRow& row);

/// A finished, read-only CSR link table. See the file comment.
class LinkTable {
 public:
  /// Appends node `m`'s out-links to `row`. Called once per node, from
  /// several workers at once for distinct nodes.
  using AddLinks = std::function<void(NodeIndex m, LinkRow& row)>;
  /// Progress hook: `done` shards of `shards` are compacted.
  using ShardProgress =
      std::function<void(std::size_t done, std::size_t shards)>;

  /// The empty table over zero nodes.
  LinkTable() = default;

  /// Builds the table over the nodes of `ids` (node index -> NodeId; the
  /// node count is ids.size()). For every node m, add_links(m, row) fills
  /// a cleared row buffer; build() sorts it, drops duplicates and the
  /// self-link, and throws std::out_of_range on a target >= ids.size().
  ///
  /// Nodes run in fixed shards on the worker pool, one reused row buffer
  /// per shard. A finished shard's rows are compacted into one exact-size
  /// chunk (charged to the memory ledger as "overlay.stream_chunks"), and
  /// the chunks are scattered into the CSR in shard order, so the table
  /// and the ledger are identical at every thread count.
  ///
  /// `on_shard(done, shards)`, when given, fires after each shard is
  /// compacted, from whichever worker ran it. It must be thread-safe and
  /// must not touch the table; the resource observatory samples the RSS
  /// timeline through it (bench/bench_scale.cc).
  static LinkTable build(std::span<const NodeId> ids,
                         const AddLinks& add_links,
                         const ShardProgress& on_shard = {});

  /// The table over the nodes of `ids` after one change to `prev`'s
  /// population (`ids` is the changed population's ID array). The
  /// ascending rows `dirty` (new indices) are filled by add_links and put
  /// in table form as build() does; on an insert they must include the new
  /// node. Every other row is `prev`'s row for the same node: each maximal
  /// run of such clean rows is copied as one block, its targets shifted by
  /// one past the change, its inline IDs as they are, and its offsets moved
  /// by one constant. The arrays are sized exactly, so the table equals
  /// build() over the same rows, ledger charge included.
  ///
  /// Precondition on an erase: no clean row links to the erased node (its
  /// index would shift onto its successor). Serial; throws
  /// std::invalid_argument if `ids`, `change` and `dirty` do not fit
  /// `prev`, and std::out_of_range on a dirty row's target >= ids.size().
  static LinkTable derive(const LinkTable& prev, std::span<const NodeId> ids,
                          IndexChange change, std::span<const NodeIndex> dirty,
                          const AddLinks& add_links);

  std::size_t node_count() const { return node_count_; }

  /// Neighbors of `node`, sorted ascending. Defined inline: this is every
  /// router's per-hop access.
  std::span<const NodeIndex> neighbors(NodeIndex node) const {
    return {targets_.data() + offsets_[node],
            static_cast<std::size_t>(offsets_[node + 1] - offsets_[node])};
  }

  /// NodeIds of `node`'s neighbors, aligned with neighbors().
  std::span<const NodeId> neighbor_ids(NodeIndex node) const {
    return {target_ids_.data() + offsets_[node],
            static_cast<std::size_t>(offsets_[node + 1] - offsets_[node])};
  }

  // Row views for the interleaved batch probe kernels
  // (overlay/batch_probe.h): row_bounds() plus targets_data()/
  // target_ids_data() are exactly neighbors()/neighbor_ids() decomposed
  // into reusable pieces.

  /// [begin, end) offsets of `node`'s CSR row.
  std::pair<LinkOffset, LinkOffset> row_bounds(NodeIndex node) const {
    return {offsets_[node], offsets_[node + 1]};
  }
  /// Flat CSR neighbor-index array.
  const NodeIndex* targets_data() const { return targets_.data(); }
  /// Flat inline neighbor-NodeId array.
  const NodeId* target_ids_data() const { return target_ids_.data(); }

  /// Prefetch hooks of the group-prefetching discipline: pull `node`'s
  /// row bounds one round before row_bounds() reads them, then the row's
  /// inline-ID and target payload one round before the greedy scan walks
  /// them. Pure scheduling hints — they never change what any kernel
  /// computes (common/prefetch.h).
  void prefetch_row_bounds(NodeIndex node) const {
    prefetch_ro(offsets_.data() + node);
    prefetch_ro(offsets_.data() + node + 1);
  }
  void prefetch_row_payload(LinkOffset begin, LinkOffset end) const {
    // Degrees are O(log n); cap the touched lines anyway so a pathological
    // row cannot evict more than it hides.
    constexpr int kMaxLines = 16;
    constexpr std::size_t kIdsPerLine = 64 / sizeof(NodeId);
    const NodeId* id = target_ids_.data() + begin;
    const NodeId* id_stop = target_ids_.data() + end;
    for (int line = 0; line < kMaxLines && id < id_stop;
         ++line, id += kIdsPerLine) {
      prefetch_ro(id);
    }
    constexpr std::size_t kTargetsPerLine = 64 / sizeof(NodeIndex);
    const NodeIndex* tgt = targets_.data() + begin;
    const NodeIndex* tgt_stop = targets_.data() + end;
    for (int line = 0; line < kMaxLines && tgt < tgt_stop;
         ++line, tgt += kTargetsPerLine) {
      prefetch_ro(tgt);
    }
  }

  /// True if the directed link from->to exists.
  bool has_link(NodeIndex from, NodeIndex to) const;

  std::size_t degree(NodeIndex node) const {
    return offsets_[node + 1] - offsets_[node];
  }
  std::size_t total_links() const { return targets_.size(); }
  double mean_degree() const;
  Histogram degree_histogram() const;

  /// Structural equality: same CSR offsets, targets, and inline ids. The
  /// determinism regression tests rely on this being exact
  /// (byte-identical layouts compare equal).
  friend bool operator==(const LinkTable& a, const LinkTable& b);

  /// Test-only backdoor (defined in tests/audit_test.cc): build() cannot
  /// produce a malformed CSR, so the auditor's mutation tests corrupt
  /// rows through this hook.
  friend struct LinkTableMutator;

 private:
  /// (Re)charges the CSR footprint to the memory accountant under
  /// "link_table.csr" (no-op when none is installed).
  void account_csr();

  std::size_t node_count_ = 0;
  std::vector<LinkOffset> offsets_ = {0};  // CSR, node_count_ + 1
  std::vector<NodeIndex> targets_;         // CSR, flat indices
  std::vector<NodeId> target_ids_;         // CSR, flat NodeIds
  telemetry::MemCharge mem_;      // ledger holding for the CSR arrays
};

/// LinkTable::build for a randomized builder: node m's row is
/// add_links(m, node_rng, row), where node_rng is the stream `rng` forks
/// for m. It does not depend on the visit order, so serial and sharded
/// builds give the same table. `rng` itself is not advanced.
template <typename AddLinks>
LinkTable build_forked(std::span<const NodeId> ids, const Rng& rng,
                       const AddLinks& add_links) {
  return LinkTable::build(ids, [&](NodeIndex m, LinkRow& row) {
    Rng node_rng = rng.fork(m);
    add_links(m, node_rng, row);
  });
}

}  // namespace canon

#endif  // CANON_OVERLAY_LINK_TABLE_H
