// Hierarchical content storage and retrieval (Section 4.1) with proxy-node
// caching (Section 4.2).
//
// A key-value pair inserted by node n carries a *storage domain* (a domain
// containing n in which the pair must physically live) and an *access
// domain* (a superset of the storage domain to whose nodes the content is
// visible). The pair is stored at the storage domain's responsible node
// for the key; if the access domain is larger, a pointer is placed at the
// access domain's responsible node.
//
// A query routes hierarchically (plain greedy); a node on the path answers
// iff it holds matching content whose access domain is no smaller than the
// current routing level (equivalently: the access domain contains the
// query's origin). Pointers are resolved transparently; answers can be
// cached at the proxy node of every origin-side domain on the path, each
// copy annotated with the level it serves (Section 4.2's replacement
// policy preferentially evicts deeper-level copies).
#ifndef CANON_STORAGE_HIERARCHICAL_STORE_H
#define CANON_STORAGE_HIERARCHICAL_STORE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/routing.h"
#include "storage/cache.h"

namespace canon {

/// Where a get() was answered from.
enum class AnswerSource {
  kNotFound,
  kOwner,    ///< the storage domain's responsible node
  kPointer,  ///< a pointer at the access domain's responsible node
  kCache,    ///< a proxy-node cache hit
};

struct GetResult {
  AnswerSource source = AnswerSource::kNotFound;
  std::string value;
  std::uint32_t served_by = 0;  ///< node that produced the answer
  Route route;                  ///< overlay path walked by the query
  int extra_pointer_hops = 0;   ///< round trip for pointer resolution
};

/// A DHT store over a built (ring-metric) Canon network.
class HierarchicalStore {
 public:
  /// `cache_capacity` entries per node; 0 disables caching.
  HierarchicalStore(const OverlayNetwork& net, const LinkTable& links,
                    std::size_t cache_capacity = 0,
                    CachePolicy policy = CachePolicy::kLevelAware);

  /// Stores <key, value> from `origin`. `storage_level` and `access_level`
  /// are hierarchy depths of domains containing origin (0 = root/global);
  /// the access domain must contain the storage domain
  /// (access_level <= storage_level). With `replication` > 1, copies also
  /// go to the holder's replication-1 ring predecessors within the storage
  /// domain — the nodes that inherit the key's range if the holder fails
  /// (under the paper's responsibility rule of footnote 3). Returns the
  /// primary storing node.
  std::uint32_t put(std::uint32_t origin, NodeId key, std::string value,
                    int storage_level, int access_level, int replication = 1);

  /// Removes the pair stored under `key` with the given origin-side levels.
  /// Returns true if something was removed. (Cached copies expire lazily:
  /// they are dropped when encountered.)
  bool erase(std::uint32_t origin, NodeId key, int storage_level,
             int access_level);

  /// Looks `key` up from `origin`, enforcing access control. Populates
  /// proxy caches on the way back when caching is enabled.
  GetResult get(std::uint32_t origin, NodeId key);

  struct MultiGetResult {
    std::vector<std::string> values;
    Route route;
  };

  /// Multi-value lookup (Section 4.1: "if the application requires a
  /// partial list of values ... routing can stop when a sufficient number
  /// of values have been found"). Collects up to `limit` distinct visible
  /// values for `key` along the query path, walking only as far as needed.
  MultiGetResult get_many(std::uint32_t origin, NodeId key,
                          std::size_t limit);

  /// Lookup in the presence of failed nodes: routes with leaf-set fallback
  /// (RingRouter's failure-aware walk) and inspects only live nodes.
  /// Replicated content survives the loss of its primary holder, because
  /// the live responsible node (the next live predecessor) already holds a
  /// copy.
  GetResult get_resilient(std::uint32_t origin, NodeId key,
                          const FailureSet& failures, int leaf_set = 4);

  /// Total stored pairs (no pointers, no cached copies).
  std::size_t stored_pairs() const;
  /// Total pointer entries.
  std::size_t pointer_entries() const;

  const NodeCache& cache(std::uint32_t node) const { return caches_[node]; }

 private:
  struct Entry {
    NodeId key = 0;
    std::string value;
    int storage_domain = 0;  ///< DomainTree index
    int access_domain = 0;   ///< DomainTree index (ancestor-or-self)
    int access_depth = 0;
  };
  struct Pointer {
    NodeId key = 0;
    std::uint32_t holder = 0;  ///< node storing the actual value
    int access_domain = 0;
    int access_depth = 0;
  };

  /// The responsible node for `key` within domain `d`.
  std::uint32_t responsible_in(int domain, NodeId key) const;
  bool visible(int access_domain, int access_depth,
               std::uint32_t origin) const;
  /// Inspects node `m`'s cache/content/pointers for `key`; fills `result`
  /// and returns true on a hit. `use_cache` gates cache reads.
  bool inspect(std::uint32_t m, NodeId key, std::uint32_t origin,
               bool use_cache, GetResult& result);

  const OverlayNetwork* net_;
  const LinkTable* links_;
  RingRouter router_;
  std::vector<std::vector<Entry>> entries_;    // per node
  std::vector<std::vector<Pointer>> pointers_;  // per node
  std::vector<NodeCache> caches_;
  bool caching_ = false;
};

}  // namespace canon

#endif  // CANON_STORAGE_HIERARCHICAL_STORE_H
