// Per-node load accounting: the paper's §5 load and fault-isolation claims
// as measured numbers.
//
// A LoadAccountant tallies, for every routed lookup, which nodes handled
// the message and in which role (source, intermediate relay, terminal),
// which key was looked up, at which hierarchy level each hop travelled,
// and whether the hop stayed inside a level-L domain (L = kDomainLevel,
// the children of the root). From those tallies it reports the load
// distribution (mean, max, Gini coefficient), the top-k hotspot nodes and
// keys, per-level and per-domain traffic shares, and the
// *domain-confinement ratio*: of the lookups whose source and
// terminal share a level-L domain, the fraction whose entire path stayed
// inside that domain. Canon's §5 claim is that this ratio is 1.0 — an
// intra-domain lookup never leaves its domain, so a remote failure cannot
// disturb it.
//
// Determinism contract: the batch QueryEngine routes over fixed query
// shards; each shard accumulates into its own LoadAccountant::Shard and
// the engine merges them in fixed shard order 0..S-1 after the barrier.
// Every tally is an integer sum and every derived figure is a pure
// function of the merged tallies, so a load report is byte-identical at
// any --threads (see docs/PERFORMANCE.md).
//
// Invariants (with `queries` observed lookups and `total_hops` hops):
//   sum(load)        == total_hops + queries   (one handling per path node)
//   sum(as_source)   == queries
//   sum(as_terminal) == queries
//   sum(hops_by_level) == total_hops           (every hop has an LCA level)
// A single-node path (the source already owns the key) counts one message
// handled, in both the source and terminal roles.
#ifndef CANON_TELEMETRY_LOAD_STATS_H
#define CANON_TELEMETRY_LOAD_STATS_H

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hierarchy/domain_tree.h"
#include "telemetry/json_writer.h"

namespace canon::telemetry {

/// Gini coefficient of a load vector: 0 = perfectly even, -> 1 as all
/// load concentrates on one node. 0 on empty or all-zero input.
double gini_coefficient(std::span<const std::uint64_t> loads);

/// One node's aggregate load, for top-k reporting.
struct NodeLoad {
  std::uint32_t node = 0;   ///< node index
  std::uint64_t id = 0;     ///< overlay ID (0 when unknown)
  std::uint64_t total = 0;  ///< messages handled
  std::uint64_t as_source = 0;
  std::uint64_t as_relay = 0;
  std::uint64_t as_terminal = 0;
};

/// One key's popularity, for hotspot reporting.
struct KeyLoad {
  std::uint64_t key = 0;
  std::uint64_t lookups = 0;
};

/// One level-L domain's share of the routed traffic.
struct DomainLoad {
  int domain = -1;           ///< DomainTree domain index
  std::string label;         ///< dotted branch path, e.g. "3" or "3.2"
  std::size_t members = 0;   ///< nodes in the domain
  std::uint64_t hops_inside = 0;  ///< hops with both endpoints inside
  double share = 0;          ///< hops_inside / total_hops (0 when no hops)
};

/// Top-k loaded nodes over a plain per-node load vector (ties broken by
/// ascending node index). Shared by the accountant and the event
/// simulator's journal snapshots.
std::vector<std::pair<std::uint32_t, std::uint64_t>> top_loaded_nodes(
    std::span<const std::uint64_t> loads, std::size_t k);

/// See the file comment.
class LoadAccountant {
 public:
  /// The hierarchy level L the per-domain shares and the confinement
  /// ratio are measured at: the children of the root, the paper's
  /// "domains".
  static constexpr int kDomainLevel = 1;

  /// Accounts against the hierarchy in `tree`; `ids` (parallel to node
  /// indices, may be empty) labels hotspot nodes with their overlay IDs.
  explicit LoadAccountant(const DomainTree& tree,
                          std::span<const std::uint64_t> ids = {});

  /// Per-shard scratch: plain tallies, cheap to create per query shard.
  /// Only LoadAccountant reads or writes its internals.
  struct Shard {
    std::vector<std::uint64_t> touches;  ///< node << 3 | role bits
    std::vector<std::uint64_t> keys;     ///< one looked-up key per query
    std::vector<std::uint64_t> hops_by_level;
    std::vector<std::uint64_t> domain_hops;  ///< dense per level-L domain
    std::uint64_t queries = 0;
    std::uint64_t ok = 0;
    std::uint64_t total_hops = 0;
    std::uint64_t intra_queries = 0;
    std::uint64_t confined_queries = 0;
  };

  /// Observes one routed query: `path` is the hop-by-hop node sequence
  /// (source first; a route that never left the source is a single-element
  /// path), `ok` whether it reached the responsible node, `key` the
  /// looked-up key. Thread-safe across distinct shards (this object is
  /// only read).
  void observe(std::span<const std::uint32_t> path, bool ok,
               std::uint64_t key, Shard& shard) const;

  /// Folds one shard's tallies in; the engine calls this in fixed shard
  /// order after its merge barrier. (Every tally is an integer sum, so
  /// any order yields identical results — the fixed order keeps the
  /// reasoning trivial.)
  void merge(const Shard& shard);

  // ---- aggregate accessors (all O(1) unless noted) ----
  std::size_t node_count() const { return load_.size(); }
  std::uint64_t queries() const { return queries_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t total_hops() const { return total_hops_; }

  /// Messages handled per node (one per path appearance).
  const std::vector<std::uint64_t>& load() const { return load_; }
  const std::vector<std::uint64_t>& as_source() const { return source_; }
  const std::vector<std::uint64_t>& as_relay() const { return relay_; }
  const std::vector<std::uint64_t>& as_terminal() const { return terminal_; }

  /// Hop counts by LCA level of the hop's endpoints (index = level).
  const std::vector<std::uint64_t>& hops_by_level() const {
    return hops_by_level_;
  }

  double mean_load() const;
  std::uint64_t max_load() const;
  /// max/mean (0 on an empty accountant): the homogeneity headline.
  double max_mean_ratio() const;
  /// O(n log n).
  double gini() const { return gini_coefficient(load_); }

  /// O(n log n) / O(k log k): deterministic (count desc, index/key asc).
  std::vector<NodeLoad> top_nodes(std::size_t k) const;
  std::vector<KeyLoad> top_keys(std::size_t k) const;

  /// Per-domain traffic at the configured level, in DomainTree order.
  std::vector<DomainLoad> domain_loads() const;

  /// Lookups whose source and terminal share a level-L domain, and how
  /// many of those never left it. ratio() is 1.0 when intra == 0 (the
  /// claim is vacuously true on a flat population).
  std::uint64_t intra_domain_queries() const { return intra_queries_; }
  std::uint64_t confined_queries() const { return confined_queries_; }
  double confinement_ratio() const;

  /// The full "load" report section (schema in docs/TELEMETRY.md):
  /// {queries, ok, total_hops, domain_level, load{mean,max,max_mean,gini},
  ///  top_nodes[], top_keys[], hops_by_level[], domains[],
  ///  confinement{intra,confined,ratio}}. Pure function of the merged
  /// integer tallies: byte-identical at any thread count.
  JsonValue to_json(std::size_t top_k = 10) const;

 private:
  static constexpr std::uint64_t kSourceBit = 1;
  static constexpr std::uint64_t kRelayBit = 2;
  static constexpr std::uint64_t kTerminalBit = 4;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  int lca_level(std::uint32_t a, std::uint32_t b) const;

  const DomainTree* tree_;
  std::vector<std::uint64_t> ids_;   // overlay IDs for labels (may be empty)
  std::vector<std::uint32_t> slot_;  // node -> dense level-L domain slot
  std::vector<int> slot_domain_;     // slot -> DomainTree domain index

  std::vector<std::uint64_t> load_;
  std::vector<std::uint64_t> source_;
  std::vector<std::uint64_t> relay_;
  std::vector<std::uint64_t> terminal_;
  std::vector<std::uint64_t> hops_by_level_;
  std::vector<std::uint64_t> domain_hops_;  // dense per slot
  std::unordered_map<std::uint64_t, std::uint64_t> key_counts_;
  std::uint64_t queries_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t total_hops_ = 0;
  std::uint64_t intra_queries_ = 0;
  std::uint64_t confined_queries_ = 0;
};

}  // namespace canon::telemetry

#endif  // CANON_TELEMETRY_LOAD_STATS_H
