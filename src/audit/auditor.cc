#include "audit/auditor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/mixed.h"
#include "canon/proximity.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "telemetry/metrics.h"

namespace canon::audit {

namespace {

std::string hex_of(const OverlayNetwork& net, std::uint32_t node) {
  return id_to_hex(net.id(node), net.space().bits());
}

}  // namespace

std::uint64_t AuditReport::total_checks() const {
  std::uint64_t total = 0;
  for (const auto& [battery, n] : checks) total += n;
  return total;
}

telemetry::JsonValue AuditReport::to_json() const {
  telemetry::JsonValue doc = telemetry::JsonValue::object();
  doc.set("ok", telemetry::JsonValue(ok()));
  telemetry::JsonValue per_battery = telemetry::JsonValue::object();
  for (const auto& [battery, n] : checks) {
    per_battery.set(battery, telemetry::JsonValue(n));
  }
  doc.set("checks", std::move(per_battery));
  doc.set("violation_count",
          telemetry::JsonValue(
              static_cast<std::uint64_t>(violations.size())));
  telemetry::JsonValue list = telemetry::JsonValue::array();
  for (const Violation& v : violations) {
    telemetry::JsonValue item = telemetry::JsonValue::object();
    item.set("check", telemetry::JsonValue(v.check));
    if (v.node == kNoNode) {
      item.set("node", telemetry::JsonValue());
    } else {
      item.set("node", telemetry::JsonValue(static_cast<std::int64_t>(v.node)));
    }
    item.set("level", telemetry::JsonValue(v.level));
    item.set("detail", telemetry::JsonValue(v.detail));
    list.push_back(std::move(item));
  }
  doc.set("violations", std::move(list));
  return doc;
}

std::string AuditReport::summary() const {
  if (ok()) {
    return "HEALTHY (" + std::to_string(total_checks()) + " checks)";
  }
  return std::to_string(violations.size()) + " violation" +
         (violations.size() == 1 ? "" : "s") + " (first: " +
         violations.front().check + ": " + violations.front().detail + ")";
}

StructureAuditor::StructureAuditor(const OverlayNetwork& net,
                                   const LinkTable& links)
    : net_(&net), links_(&links) {
  if (links.node_count() != net.size()) {
    throw std::invalid_argument(
        "StructureAuditor: link table size does not match the network");
  }
}

void StructureAuditor::add_violation(AuditReport& r, std::string check,
                                     std::uint32_t node, int level,
                                     std::string detail) const {
  if (telemetry::Counter* c = telemetry::maybe_counter("audit.violations")) {
    c->inc();
  }
  r.violations.push_back(
      Violation{std::move(check), node, level, std::move(detail)});
}

void StructureAuditor::count_checks(AuditReport& r, std::string_view battery,
                                    std::uint64_t n) const {
  if (telemetry::Counter* c = telemetry::maybe_counter("audit.checks")) {
    c->inc(n);
  }
  r.checks[std::string(battery)] += n;
}

void StructureAuditor::check_csr(AuditReport& r) const {
  const std::size_t n = net_->size();
  std::uint64_t evaluated = 0;
  for (std::uint32_t m = 0; m < n; ++m) {
    const auto row = links_->neighbors(m);
    bool sorted_ok = true, range_ok = true, self_ok = true, ids_ok = true;
    for (std::size_t k = 0; k < row.size(); ++k) {
      evaluated += 3;
      if (row[k] >= n) {
        if (range_ok) {
          add_violation(r, "csr.target_range", m, -1,
                        "dangling target index " + std::to_string(row[k]) +
                            " >= node count " + std::to_string(n));
        }
        range_ok = false;
        continue;  // the id/self checks below would index out of bounds
      }
      if (row[k] == m && self_ok) {
        add_violation(r, "csr.self_link", m, -1,
                      "row contains a self-link");
        self_ok = false;
      }
      if (k > 0 && row[k] <= row[k - 1] && sorted_ok) {
        add_violation(
            r, "csr.row_sorted", m, -1,
            row[k] == row[k - 1]
                ? "duplicate target " + std::to_string(row[k])
                : "row not sorted ascending at position " + std::to_string(k));
        sorted_ok = false;
      }
      ++evaluated;
      if (links_->neighbor_ids(m)[k] != net_->id(row[k]) && ids_ok) {
        add_violation(r, "csr.inline_ids", m, -1,
                      "inline NodeId misaligned at position " +
                          std::to_string(k) + " (have " +
                          id_to_hex(links_->neighbor_ids(m)[k],
                                    net_->space().bits()) +
                          ", index says " + hex_of(*net_, row[k]) + ")");
        ids_ok = false;
      }
    }
  }
  count_checks(r, "csr", evaluated);
}

void StructureAuditor::check_hierarchy(AuditReport& r) const {
  const DomainTree& dom = net_->domains();
  std::uint64_t evaluated = 0;

  // Per-domain structure: member ordering, parent/child back-links.
  for (int d = 0; d < dom.domain_count(); ++d) {
    const Domain& domain = dom.domain(d);
    for (std::size_t i = 0; i + 1 < domain.members.size(); ++i) {
      ++evaluated;
      if (net_->id(domain.members[i]) >= net_->id(domain.members[i + 1])) {
        add_violation(r, "hierarchy.member_order", domain.members[i + 1],
                      domain.depth,
                      "domain " + std::to_string(d) +
                          " member list not ID-sorted");
      }
    }
    for (const int child : domain.children) {
      evaluated += 2;
      if (dom.domain(child).parent != d) {
        add_violation(r, "hierarchy.parent_link", kNoNode, domain.depth,
                      "child domain " + std::to_string(child) +
                          " does not point back to parent " +
                          std::to_string(d));
      }
      if (dom.domain(child).depth != domain.depth + 1) {
        add_violation(r, "hierarchy.depth", kNoNode, domain.depth,
                      "child domain " + std::to_string(child) +
                          " depth is not parent depth + 1");
      }
    }
  }

  // Per-node chains: the chain matches the node's DomainPath, the node is
  // a member at every level, and merge limits are monotone (a coarser
  // ring's successor is never farther than a finer ring's — the property
  // condition (b) of the paper's merge rule leans on).
  for (std::uint32_t m = 0; m < net_->size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    ++evaluated;
    if (static_cast<int>(chain.size()) != dom.node_depth(m) + 1 ||
        chain.empty() || chain.front() != dom.root()) {
      add_violation(r, "hierarchy.chain", m, -1,
                    "domain chain does not run root..leaf");
      continue;
    }
    std::uint64_t deeper_dist = 0;  // successor distance one level down
    for (int l = static_cast<int>(chain.size()) - 1; l >= 0; --l) {
      const int d = chain[static_cast<std::size_t>(l)];
      evaluated += 2;
      const auto& members = dom.domain(d).members;
      if (!std::binary_search(members.begin(), members.end(), m)) {
        add_violation(r, "hierarchy.chain", m, l,
                      "node missing from its level-" + std::to_string(l) +
                          " domain member list");
      }
      const RingView ring = net_->domain_ring(d);
      const std::uint64_t dist = ring.successor_distance(net_->id(m));
      if (l < static_cast<int>(chain.size()) - 1 && dist > deeper_dist) {
        add_violation(
            r, "hierarchy.merge_limit", m, l,
            "successor distance grows from level " + std::to_string(l + 1) +
                " to coarser level " + std::to_string(l) +
                " (merge limits must be monotone)");
      }
      deeper_dist = dist;
    }
  }
  count_checks(r, "hierarchy", evaluated);
}

void StructureAuditor::check_ring_closure(AuditReport& r, int min_level,
                                          int max_level) const {
  const DomainTree& dom = net_->domains();
  std::uint64_t evaluated = 0;
  for (std::uint32_t m = 0; m < net_->size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    const int top = std::min(max_level, static_cast<int>(chain.size()) - 1);
    for (int l = min_level; l <= top; ++l) {
      const RingView ring =
          net_->domain_ring(chain[static_cast<std::size_t>(l)]);
      if (ring.size() < 2) continue;
      ++evaluated;
      const std::uint32_t succ = ring.first_at_distance(net_->id(m), 1);
      if (succ == RingView::kNone) continue;  // cannot happen with >= 2
      if (!links_->has_link(m, succ)) {
        add_violation(r, "ring.closure", m, l,
                      "missing successor edge to " + hex_of(*net_, succ) +
                          " in the level-" + std::to_string(l) +
                          " domain ring");
      }
    }
  }
  count_checks(r, "ring.closure", evaluated);
}

void StructureAuditor::check_chord_fingers(AuditReport& r,
                                           bool hierarchical) const {
  // Recompute every node's finger set with the construction rule itself —
  // conditions (a) and (b) — and byte-diff it against the live row.
  const RingView whole = net_->ring();
  LinkRow want;
  std::uint64_t evaluated = 0;
  for (std::uint32_t m = 0; m < net_->size(); ++m) {
    want.clear();
    if (hierarchical) {
      add_crescendo_links(*net_, m, want);
    } else {
      add_chord_fingers(*net_, whole, m, kNoLimit, want);
    }
    sanitize_row(m, net_->size(), want);
    evaluated += diff_row(r, "chord.finger", m, want);
  }
  count_checks(r, "chord.finger", evaluated);
}

void StructureAuditor::check_expected(AuditReport& r,
                                      const LinkTable& expected,
                                      std::string_view check_name) const {
  if (expected.node_count() != net_->size()) {
    throw std::invalid_argument(
        "StructureAuditor::check_expected: bad expected table");
  }
  std::uint64_t evaluated = 0;
  for (std::uint32_t m = 0; m < net_->size(); ++m) {
    evaluated += diff_row(r, check_name, m, expected.neighbors(m));
  }
  count_checks(r, check_name, evaluated);
}

std::uint64_t StructureAuditor::diff_row(
    AuditReport& r, std::string_view check_name, std::uint32_t m,
    std::span<const NodeIndex> want) const {
  const auto actual = links_->neighbors(m);
  std::size_t a = 0, w = 0;
  while (a < actual.size() || w < want.size()) {
    if (w == want.size() || (a < actual.size() && actual[a] < want[w])) {
      add_violation(r, std::string(check_name), m,
                    actual[a] < net_->size()
                        ? net_->lca_level(m, actual[a])
                        : -1,
                    "unexpected link to " +
                        (actual[a] < net_->size()
                             ? hex_of(*net_, actual[a])
                             : "index " + std::to_string(actual[a])));
      ++a;
    } else if (a == actual.size() || want[w] < actual[a]) {
      add_violation(r, std::string(check_name), m,
                    net_->lca_level(m, want[w]),
                    "missing link to " + hex_of(*net_, want[w]));
      ++w;
    } else {
      ++a;
      ++w;
    }
  }
  return actual.size() + want.size();
}

void StructureAuditor::check_xor_buckets(AuditReport& r,
                                         bool hierarchical) const {
  const DomainTree& dom = net_->domains();
  const int bits = net_->space().bits();
  std::vector<bool> covered(static_cast<std::size_t>(bits));
  std::uint64_t evaluated = 0;
  for (std::uint32_t m = 0; m < net_->size(); ++m) {
    const auto& chain = dom.domain_chain(m);
    const int top = hierarchical ? static_cast<int>(chain.size()) - 1 : 0;
    for (int l = 0; l <= top; ++l) {
      const int d = chain[static_cast<std::size_t>(l)];
      const RingView ring = net_->domain_ring(d);
      if (ring.size() < 2) continue;
      std::fill(covered.begin(), covered.end(), false);
      for (const std::uint32_t nb : links_->neighbors(m)) {
        if (nb >= net_->size()) continue;  // csr battery reports these
        if (!net_->node(nb).domain.in_domain_of(net_->node(m).domain, l)) {
          continue;
        }
        const std::uint64_t dist =
            net_->space().xor_distance(net_->id(m), net_->id(nb));
        if (dist > 0) covered[static_cast<std::size_t>(floor_log2(dist))] = true;
      }
      for (int k = 0; k < bits; ++k) {
        ++evaluated;
        if (bucket_closest_distance(*net_, ring, net_->id(m), k) == 0) {
          continue;  // bucket empty within this domain
        }
        if (!covered[static_cast<std::size_t>(k)]) {
          add_violation(r, "xor.bucket", m, l,
                        "bucket 2^" + std::to_string(k) +
                            " is populated in the level-" + std::to_string(l) +
                            " domain but holds no link");
        }
      }
    }
  }
  count_checks(r, "xor.bucket", evaluated);
}

std::vector<StructureAuditor::OwnedZone> StructureAuditor::extract_zones(
    const ZoneTree& tree, std::span<const std::uint32_t> members) {
  std::vector<OwnedZone> out;
  for (const std::uint32_t m : members) {
    for (const ZoneTree::Zone& z : tree.zones_of(m)) {
      out.push_back(OwnedZone{z, m});
    }
  }
  return out;
}

void StructureAuditor::check_zone_list(AuditReport& r,
                                       std::span<const OwnedZone> zones,
                                       int level) const {
  const IdSpace& space = net_->space();
  const int bits = space.bits();
  std::uint64_t evaluated = 0;

  // Zone well-formedness + domain containment: every owner's ID must lie
  // inside at least one of its own zones (the primary-zone rule).
  std::vector<std::uint32_t> owners;
  for (const OwnedZone& oz : zones) {
    evaluated += 2;
    if (oz.zone.len < 0 || oz.zone.len > bits) {
      add_violation(r, "zone.tiling", oz.owner, level,
                    "zone prefix length " + std::to_string(oz.zone.len) +
                        " outside [0, " + std::to_string(bits) + "]");
      continue;
    }
    const std::uint64_t size =
        oz.zone.len == 0 ? 0 : (std::uint64_t{1} << (bits - oz.zone.len));
    if (oz.zone.len > 0 && (oz.zone.prefix & (size - 1)) != 0) {
      add_violation(r, "zone.tiling", oz.owner, level,
                    "zone " + id_to_hex(oz.zone.prefix, bits) + "/" +
                        std::to_string(oz.zone.len) +
                        " is not aligned to its own size");
    }
    owners.push_back(oz.owner);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  for (const std::uint32_t owner : owners) {
    ++evaluated;
    bool contained = false;
    for (const OwnedZone& oz : zones) {
      if (oz.owner != owner || oz.zone.len < 0 || oz.zone.len > bits) continue;
      const NodeId id = net_->id(owner);
      const int shift = bits - oz.zone.len;
      const NodeId block =
          oz.zone.len == 0
              ? 0
              : (shift >= 64 ? 0 : ((id >> shift) << shift));
      if (block == oz.zone.prefix) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      add_violation(r, "zone.containment", owner, level,
                    "node " + hex_of(*net_, owner) +
                        " owns no zone containing its own ID");
    }
  }

  // Tiling: sorted by prefix the zones must cover [0, 2^bits) exactly —
  // no gap, no overlap. (A single len-0 zone is the whole space.)
  std::vector<OwnedZone> sorted(zones.begin(), zones.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const OwnedZone& a, const OwnedZone& b) {
              return a.zone.prefix < b.zone.prefix;
            });
  if (sorted.size() == 1 && sorted[0].zone.len == 0) {
    count_checks(r, "zone.tiling", evaluated + 1);
    return;
  }
  NodeId expected_start = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ++evaluated;
    const OwnedZone& oz = sorted[i];
    if (oz.zone.len < 1 || oz.zone.len > bits) continue;  // reported above
    if (oz.zone.prefix != expected_start) {
      add_violation(
          r, "zone.tiling", oz.owner, level,
          std::string(oz.zone.prefix > expected_start ? "gap" : "overlap") +
              " before zone " + id_to_hex(oz.zone.prefix, bits) + "/" +
              std::to_string(oz.zone.len) + " (expected block start " +
              id_to_hex(expected_start, bits) + ")");
      expected_start = oz.zone.prefix;  // resynchronize to localize reports
    }
    expected_start += std::uint64_t{1} << (bits - oz.zone.len);
  }
  ++evaluated;
  // The final end must wrap to exactly the space size (0 in 64-bit math
  // when bits == 64, mask()+1 otherwise).
  const NodeId space_end = space.mask() + 1;
  if (expected_start != space_end) {
    add_violation(r, "zone.tiling",
                  sorted.empty() ? kNoNode : sorted.back().owner, level,
                  "zones do not cover the identifier space (end " +
                      id_to_hex(expected_start, bits) + ")");
  }
  count_checks(r, "zone.tiling", evaluated);
}

void StructureAuditor::check_can_links(AuditReport& r, const ZoneTree& tree,
                                       std::span<const std::uint32_t> members,
                                       int level, bool exact) const {
  std::uint64_t evaluated = 0;
  for (const std::uint32_t m : members) {
    std::vector<std::uint32_t> want = tree.neighbors(m);
    std::sort(want.begin(), want.end());
    const auto actual = links_->neighbors(m);
    evaluated += want.size();
    for (const std::uint32_t v : want) {
      if (!std::binary_search(actual.begin(), actual.end(), v)) {
        add_violation(r, "can.face", m, level,
                      "missing face-neighbor link to " + hex_of(*net_, v));
      }
    }
    if (exact) {
      evaluated += actual.size();
      for (const std::uint32_t v : actual) {
        if (!std::binary_search(want.begin(), want.end(), v)) {
          add_violation(r, "can.face", m, level,
                        "link to " + hex_of(*net_, v) +
                            " crosses no zone face");
        }
      }
    }
  }
  count_checks(r, "can.face", evaluated);
}

void StructureAuditor::check_group_cliques(AuditReport& r,
                                           const GroupedOverlay& groups) const {
  std::uint64_t evaluated = 0;
  for (const GroupedOverlay::Group& g : groups.groups()) {
    for (const std::uint32_t m : g.members) {
      for (const std::uint32_t v : g.members) {
        if (v == m) continue;
        ++evaluated;
        if (!links_->has_link(m, v)) {
          add_violation(r, "group.clique", m, -1,
                        "missing intra-group link to " + hex_of(*net_, v) +
                            " (group " +
                            id_to_hex(g.gid, groups.prefix_bits()) + ")");
        }
      }
    }
  }
  count_checks(r, "group.clique", evaluated);
}

void StructureAuditor::check_liveness(AuditReport& r,
                                      const FailureSet& dead,
                                      int leaf_set) const {
  const std::uint32_t n = static_cast<std::uint32_t>(net_->size());
  std::uint64_t degree_checks = 0;
  std::uint64_t leaf_checks = 0;
  for (std::uint32_t m = 0; m < n; ++m) {
    if (dead.dead(m)) continue;
    ++degree_checks;
    bool live_neighbor = false;
    for (const std::uint32_t v : links_->neighbors(m)) {
      if (!dead.dead(v)) {
        live_neighbor = true;
        break;
      }
    }
    if (!live_neighbor) {
      add_violation(r, "live.degree", m, -1,
                    "node " + hex_of(*net_, m) +
                        " has no live neighbor left");
    }
    if (leaf_set > 0) {
      ++leaf_checks;
      // Node indices are ascending by ID, so index order IS ring order.
      bool live_successor = false;
      for (int step = 1; step <= leaf_set; ++step) {
        const std::uint32_t succ = (m + static_cast<std::uint32_t>(step)) % n;
        if (succ == m) break;  // wrapped all the way around
        if (!dead.dead(succ)) {
          live_successor = true;
          break;
        }
      }
      if (!live_successor) {
        add_violation(r, "live.leafset", m, -1,
                      "no live successor within " +
                          std::to_string(leaf_set) +
                          " ring steps of node " + hex_of(*net_, m));
      }
    }
  }
  count_checks(r, "live.degree", degree_checks);
  if (leaf_set > 0) count_checks(r, "live.leafset", leaf_checks);
}

}  // namespace canon::audit
