// Dynamic maintenance for Crescendo (Section 2.3).
//
// Crescendo's link structure is a deterministic function of the member set
// (IDs + hierarchy positions), so maintenance reduces to (a) routing the
// joiner's ID to its predecessor at every level (the paper's insertion
// lookups), (b) computing the joiner's own links, and (c) notifying the
// O(log n) existing nodes whose links or merge limits the change affects.
// This class simulates that protocol: it maintains the link structure
// incrementally across joins and leaves, counts the messages each
// operation would send, and exposes per-level leaf sets (successor lists).
//
// Each change derives the next state from the current one by splicing,
// without re-running the builders. The next network is the current one
// with one node inserted or erased (OverlayNetwork's derivation
// constructors: the arrays are spliced, and the domain tree shifts its
// member indices past the change). The next link table is
// LinkTable::derive: it recomputes only the affected rows and the
// joiner's, and copies each run of clean rows from the current table as
// one block, indices shifted by one past the change. A change therefore
// costs O(n) block copies plus O(log n) recomputed rows, and it commits
// with no-throw moves: a rejected join or leave leaves the structure
// untouched and is not counted.
//
// The key invariant — verified by tests — is that the incrementally
// maintained table is byte-identical to a from-scratch construction over
// the surviving member set, and the derived network equals one constructed
// from that member set.
#ifndef CANON_MAINTENANCE_DYNAMIC_CRESCENDO_H
#define CANON_MAINTENANCE_DYNAMIC_CRESCENDO_H

#include <memory>
#include <vector>

#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon::telemetry {
class EventJournal;  // telemetry/journal.h
}

namespace canon {

struct MaintenanceCost {
  int lookup_hops = 0;     ///< hops to locate per-level predecessors
  int nodes_updated = 0;   ///< existing nodes whose links were recomputed
  int messages() const { return lookup_hops + nodes_updated; }
};

class DynamicCrescendo {
 public:
  /// Starts from an initial population (may be empty).
  DynamicCrescendo(IdSpace space, std::vector<OverlayNode> initial = {});

  std::size_t size() const { return net_->size(); }

  /// Current network (replaced by each membership change).
  const OverlayNetwork& network() const { return *net_; }

  /// Current links as a LinkTable over network() (replaced by each
  /// membership change).
  const LinkTable& link_table() const { return table_; }

  /// True if a member has this ID.
  bool contains(NodeId id) const;

  /// Adds a node. Throws on a duplicate ID or an ID outside the space,
  /// leaving the structure and the maintenance metrics unchanged.
  MaintenanceCost join(const OverlayNode& node);

  /// Removes the node with this ID. Throws if absent, leaving the
  /// structure and the maintenance metrics unchanged.
  MaintenanceCost leave(NodeId id);

  /// The `count` successors of `id` within its level-`level` domain ring —
  /// the paper's per-level leaf set.
  std::vector<NodeId> leaf_set(NodeId id, int level, int count) const;

  /// Attaches an event journal (see telemetry/journal.h): each successful
  /// join() emits join + repair events, each leave() emits leave + repair,
  /// so a churn run becomes a replayable JSONL artifact. nullptr detaches.
  void set_journal(telemetry::EventJournal* journal) { journal_ = journal; }

 private:
  int count_lookup_hops(const OverlayNode& node) const;
  /// Derives the table over `next`, recomputing the ascending rows `dirty`
  /// (indices into `next`), and replaces the held network and table.
  void commit(std::unique_ptr<OverlayNetwork> next, IndexChange change,
              const std::vector<NodeIndex>& dirty);

  std::unique_ptr<OverlayNetwork> net_;
  LinkTable table_;
  telemetry::EventJournal* journal_ = nullptr;
};

}  // namespace canon

#endif  // CANON_MAINTENANCE_DYNAMIC_CRESCENDO_H
