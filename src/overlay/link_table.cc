#include "overlay/link_table.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "telemetry/metrics.h"

namespace canon {

namespace {

/// Nodes per build shard. Fixed, so the shard boundaries — and with them
/// the table and the memory ledger — never depend on the thread count.
/// Small enough that a 2^12-node build still splits into 8 shards for the
/// worker pool; large enough that a shard amortizes its claim and chunk.
constexpr std::size_t kShardNodes = 512;

/// Guards the 32-bit CSR offsets: link counts must fit LinkOffset.
LinkOffset checked_offset(std::size_t links) {
  if (links > std::numeric_limits<LinkOffset>::max()) {
    throw std::length_error(
        "LinkTable: more than 2^32 - 1 links (LinkOffset overflow)");
  }
  return static_cast<LinkOffset>(links);
}

}  // namespace

void sanitize_row(NodeIndex m, std::size_t node_count, LinkRow& row) {
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
  const auto self = std::lower_bound(row.begin(), row.end(), m);
  if (self != row.end() && *self == m) row.erase(self);
  if (!row.empty() && row.back() >= node_count) {
    throw std::out_of_range("sanitize_row: target index out of range");
  }
}

LinkTable LinkTable::build(std::span<const NodeId> ids,
                           const AddLinks& add_links,
                           const ShardProgress& on_shard) {
  const std::size_t n = ids.size();
  const std::size_t shards = (n + kShardNodes - 1) / kShardNodes;
  // Per-shard compact chunks: flat sanitized targets plus per-node row
  // sizes, each trimmed to its exact size once the shard completes.
  struct Chunk {
    std::vector<NodeIndex> targets;
    std::vector<LinkOffset> sizes;
  };
  std::vector<Chunk> chunks(shards);
  std::atomic<std::size_t> shards_done{0};
  parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
    LinkRow row;
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t lo = s * kShardNodes;
      const std::size_t hi = std::min(n, lo + kShardNodes);
      Chunk& chunk = chunks[s];
      chunk.sizes.reserve(hi - lo);
      for (std::size_t m = lo; m < hi; ++m) {
        row.clear();
        add_links(static_cast<NodeIndex>(m), row);
        sanitize_row(static_cast<NodeIndex>(m), n, row);
        chunk.sizes.push_back(static_cast<LinkOffset>(row.size()));
        chunk.targets.insert(chunk.targets.end(), row.begin(), row.end());
      }
      chunk.targets.shrink_to_fit();
      if (on_shard) {
        on_shard(shards_done.fetch_add(1, std::memory_order_relaxed) + 1,
                 shards);
      }
    }
  });
  // Ledger charge for the chunks, held until they are freed at return so
  // it overlaps the CSR charge below exactly as the allocations do. Exact
  // sizes make it a pure function of the table.
  std::uint64_t chunk_bytes = 0;
  for (const Chunk& chunk : chunks) {
    chunk_bytes += telemetry::vector_bytes(chunk.targets) +
                   telemetry::vector_bytes(chunk.sizes);
  }
  telemetry::MemScope chunk_scope("overlay.stream_chunks", chunk_bytes);
  // Serial prefix sum over the per-node sizes (fixed shard order), then a
  // sharded scatter of the chunks into the final CSR arrays.
  LinkTable out;
  out.node_count_ = n;
  out.offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  {
    std::size_t m = 0;
    for (const Chunk& chunk : chunks) {
      for (const LinkOffset size : chunk.sizes) {
        total += size;
        out.offsets_[++m] = checked_offset(total);
      }
    }
  }
  out.targets_.resize(total);
  out.target_ids_.resize(total);
  parallel_for(shards, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      Chunk& chunk = chunks[s];
      std::size_t k = out.offsets_[s * kShardNodes];
      for (const NodeIndex to : chunk.targets) {
        out.targets_[k] = to;
        out.target_ids_[k] = ids[to];
        ++k;
      }
      chunk.targets.clear();
      chunk.targets.shrink_to_fit();
    }
  });
  out.account_csr();
  if (telemetry::Gauge* g = telemetry::maybe_gauge("build.threads")) {
    g->set(parallel_threads());
  }
  return out;
}

LinkTable LinkTable::derive(const LinkTable& prev, std::span<const NodeId> ids,
                            IndexChange change,
                            std::span<const NodeIndex> dirty,
                            const AddLinks& add_links) {
  const std::size_t n = ids.size();
  const std::size_t prev_n = prev.node_count_;
  if (change.at >= (change.insert ? n : prev_n) ||
      n != change.next_size(prev_n)) {
    throw std::invalid_argument("LinkTable::derive: change does not fit");
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (dirty[i] >= n || (i > 0 && dirty[i] <= dirty[i - 1])) {
      throw std::invalid_argument(
          "LinkTable::derive: dirty rows must ascend below the node count");
    }
  }
  if (change.insert &&
      !std::binary_search(dirty.begin(), dirty.end(), change.at)) {
    throw std::invalid_argument(
        "LinkTable::derive: the inserted node's row must be dirty");
  }

  // The dirty rows in table form, back to back, and the exact link count:
  // the old table's, less the erased row and the old dirty rows, plus the
  // new dirty rows.
  std::vector<NodeIndex> fresh;
  std::vector<std::size_t> fresh_end(dirty.size());
  std::size_t total = prev.total_links();
  if (!change.insert) total -= prev.degree(change.at);
  LinkRow row;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const NodeIndex m = dirty[i];
    row.clear();
    add_links(m, row);
    sanitize_row(m, n, row);
    fresh.insert(fresh.end(), row.begin(), row.end());
    fresh_end[i] = fresh.size();
    if (!change.insert || m != change.at) {
      total -= prev.degree(change.prev(m));
    }
  }
  total += fresh.size();
  checked_offset(total);

  LinkTable out;
  out.node_count_ = n;
  out.offsets_.reserve(n + 1);
  out.targets_.reserve(total);
  out.target_ids_.reserve(total);
  NodeIndex m = 0;  // next row to fill
  // Copies the clean rows [m, end), whose old rows are contiguous, as one
  // block.
  const auto copy_block = [&](NodeIndex end) {
    if (m == end) return;
    const NodeIndex first = change.prev(m);
    const LinkOffset begin = prev.offsets_[first];
    const LinkOffset stop = prev.offsets_[first + (end - m)];
    const auto k = static_cast<LinkOffset>(out.targets_.size());
    const LinkOffset shift = k - begin;  // modulo 2^32
    for (NodeIndex r = first + 1; r <= first + (end - m); ++r) {
      out.offsets_.push_back(prev.offsets_[r] + shift);
    }
    out.targets_.insert(out.targets_.end(), prev.targets_.begin() + begin,
                        prev.targets_.begin() + stop);
    for (auto it = out.targets_.begin() + k; it != out.targets_.end(); ++it) {
      *it = change.next(*it);
    }
    out.target_ids_.insert(out.target_ids_.end(),
                           prev.target_ids_.begin() + begin,
                           prev.target_ids_.begin() + stop);
    m = end;
  };
  // Copies the clean rows [m, end): one block, or two when the erased
  // node's old row falls between them.
  const auto copy_clean = [&](NodeIndex end) {
    if (!change.insert && m < change.at && change.at < end) {
      copy_block(change.at);
    }
    copy_block(end);
  };
  std::size_t f = 0;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    copy_clean(dirty[i]);
    for (; f < fresh_end[i]; ++f) {
      out.targets_.push_back(fresh[f]);
      out.target_ids_.push_back(ids[fresh[f]]);
    }
    out.offsets_.push_back(static_cast<LinkOffset>(out.targets_.size()));
    ++m;
  }
  copy_clean(static_cast<NodeIndex>(n));
  out.account_csr();
  return out;
}

void LinkTable::account_csr() {
  mem_.reset("link_table.csr",
             telemetry::vector_bytes(offsets_) +
                 telemetry::vector_bytes(targets_) +
                 telemetry::vector_bytes(target_ids_));
}

bool LinkTable::has_link(NodeIndex from, NodeIndex to) const {
  const auto row = neighbors(from);
  return std::binary_search(row.begin(), row.end(), to);
}

double LinkTable::mean_degree() const {
  if (node_count_ == 0) return 0;
  return static_cast<double>(total_links()) /
         static_cast<double>(node_count_);
}

Histogram LinkTable::degree_histogram() const {
  Histogram h;
  for (NodeIndex i = 0; i < node_count_; ++i) {
    h.add(static_cast<std::int64_t>(degree(i)));
  }
  return h;
}

bool operator==(const LinkTable& a, const LinkTable& b) {
  return a.node_count_ == b.node_count_ && a.offsets_ == b.offsets_ &&
         a.targets_ == b.targets_ && a.target_ids_ == b.target_ids_;
}

}  // namespace canon
