#include "overlay/family_registry.h"

#include <array>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "canon/cacophony.h"
#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "canon/mixed.h"
#include "canon/nondet_crescendo.h"
#include "canon/proximity.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/nondet_chord.h"
#include "dht/symphony.h"
#include "overlay/routing.h"

namespace canon::registry {

namespace {

// ---------------------------------------------------------------------------
// build hooks
//
// The shared experiment conventions (tests/parallel_determinism_test.cc):
// the proximity families group by the top bits (kTargetGroupSize) and rank
// endpoints with a synthetic but deterministic latency oracle.

double synthetic_latency(std::uint32_t a, std::uint32_t b) {
  return static_cast<double>((a * 31u + b * 17u) % 97u + 1u);
}

LinkTable build_chord_hook(const OverlayNetwork& net, Rng&) {
  return build_chord(net);
}
LinkTable build_symphony_hook(const OverlayNetwork& net, Rng& rng) {
  return build_symphony(net, rng);
}
LinkTable build_nondet_chord_hook(const OverlayNetwork& net, Rng& rng) {
  return build_nondet_chord(net, rng);
}
LinkTable build_kademlia_hook(const OverlayNetwork& net, Rng&) {
  return build_kademlia(net);
}
LinkTable build_can_hook(const OverlayNetwork& net, Rng&) {
  return build_can(net);
}
LinkTable build_crescendo_hook(const OverlayNetwork& net, Rng&) {
  return build_crescendo(net);
}
LinkTable build_clique_crescendo_hook(const OverlayNetwork& net, Rng&) {
  return build_clique_crescendo(net);
}
LinkTable build_cacophony_hook(const OverlayNetwork& net, Rng& rng) {
  return build_cacophony(net, rng);
}
LinkTable build_nondet_crescendo_hook(const OverlayNetwork& net, Rng& rng) {
  return build_nondet_crescendo(net, rng);
}
LinkTable build_kandy_hook(const OverlayNetwork& net, Rng&) {
  return build_kandy(net);
}
LinkTable build_cancan_hook(const OverlayNetwork& net, Rng&) {
  return build_cancan(net);
}
LinkTable build_chord_prox_hook(const OverlayNetwork& net, Rng& rng) {
  const GroupedOverlay groups(net);
  return build_chord_prox(net, groups, synthetic_latency, ProximityConfig{},
                          rng);
}
LinkTable build_crescendo_prox_hook(const OverlayNetwork& net, Rng& rng) {
  const GroupedOverlay groups(net);
  return build_crescendo_prox(net, groups, synthetic_latency,
                              ProximityConfig{}, rng);
}

// ---------------------------------------------------------------------------
// make_router / make_stepper hooks
//
// One concrete GreedyRouter per metric over the table it is given; its
// kernel shares ownership of any auxiliary structure it ranks over (the
// grouping, or Can-Can's zone slots, derived from `net`). FamilyRouter
// copies share the router, and the stepper is the router's own kernel
// adapter.

RingRouter ring_router(const OverlayNetwork& net, const LinkTable& links) {
  return RingRouter(net, links);
}
XorRouter xor_router(const OverlayNetwork& net, const LinkTable& links) {
  return XorRouter(net, links);
}
CanRouter can_router(const OverlayNetwork& net, const LinkTable& links) {
  return CanRouter(net, links);
}
CanCanRouter cancan_router(const OverlayNetwork& net, const LinkTable& links) {
  return CanCanRouter(net, std::make_shared<const CanCanZones>(net), links);
}
GroupRouter group_router(const OverlayNetwork& net, const LinkTable& links) {
  return GroupRouter(net,
                     std::make_shared<const GroupedOverlay>(net), links);
}

template <auto Make>
FamilyRouter make_router(const OverlayNetwork& net, const LinkTable& links) {
  return {std::make_shared<const FamilyRouter::AnyRouter>(Make(net, links))};
}

template <auto Make>
Stepper make_stepper(const OverlayNetwork& net, const LinkTable& links) {
  return Make(net, links).stepper();
}

// ---------------------------------------------------------------------------
// audit hooks
//
// Battery composition per family (table in audit/auditor.h); every family
// starts with csr + hierarchy. These used to live in
// StructureAuditor::audit(family) as a name-dispatch chain.

constexpr int kAllLevels = std::numeric_limits<int>::max();

struct Battery {
  audit::StructureAuditor auditor;
  audit::AuditReport r;
  Battery(const OverlayNetwork& net, const LinkTable& links)
      : auditor(net, links) {
    auditor.check_csr(r);
    auditor.check_hierarchy(r);
  }
};

audit::AuditReport audit_chord(const OverlayNetwork& net,
                               const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_ring_closure(b.r, 0, 0);
  b.auditor.check_chord_fingers(b.r, /*hierarchical=*/false);
  return std::move(b.r);
}

audit::AuditReport audit_crescendo(const OverlayNetwork& net,
                                   const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_ring_closure(b.r, 0, kAllLevels);
  b.auditor.check_chord_fingers(b.r, /*hierarchical=*/true);
  return std::move(b.r);
}

audit::AuditReport audit_clique_crescendo(const OverlayNetwork& net,
                                          const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_ring_closure(b.r, 0, kAllLevels);
  b.auditor.check_expected(b.r, build_clique_crescendo(net),
                           "clique_crescendo.links");
  return std::move(b.r);
}

audit::AuditReport audit_flat_ring(const OverlayNetwork& net,
                                   const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_ring_closure(b.r, 0, 0);
  return std::move(b.r);
}

audit::AuditReport audit_level_rings(const OverlayNetwork& net,
                                     const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_ring_closure(b.r, 0, kAllLevels);
  return std::move(b.r);
}

audit::AuditReport audit_kademlia(const OverlayNetwork& net,
                                  const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_xor_buckets(b.r, /*hierarchical=*/false);
  return std::move(b.r);
}

audit::AuditReport audit_kandy(const OverlayNetwork& net,
                               const LinkTable& links) {
  Battery b(net, links);
  b.auditor.check_xor_buckets(b.r, /*hierarchical=*/true);
  return std::move(b.r);
}

audit::AuditReport audit_can(const OverlayNetwork& net,
                             const LinkTable& links) {
  Battery b(net, links);
  const ZoneTree tree(net, net.ring().members());
  const auto zones =
      audit::StructureAuditor::extract_zones(tree, net.ring().members());
  b.auditor.check_zone_list(b.r, zones, 0);
  b.auditor.check_can_links(b.r, tree, net.ring().members(), 0,
                            /*exact=*/true);
  return std::move(b.r);
}

audit::AuditReport audit_cancan(const OverlayNetwork& net,
                                const LinkTable& links) {
  Battery b(net, links);
  const CanCanZones cc(net);
  const DomainTree& dom = net.domains();
  for (int d = 0; d < dom.domain_count(); ++d) {
    const auto& members = dom.domain(d).members;
    const auto zones =
        audit::StructureAuditor::extract_zones(cc.tree(d), members);
    b.auditor.check_zone_list(b.r, zones, dom.domain(d).depth);
  }
  // Every node keeps all CAN edges of its leaf domain's partition.
  std::vector<std::vector<std::uint32_t>> leaf_members(
      static_cast<std::size_t>(dom.domain_count()));
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    leaf_members[static_cast<std::size_t>(dom.domain_chain(m).back())]
        .push_back(m);
  }
  for (int d = 0; d < dom.domain_count(); ++d) {
    const auto& members = leaf_members[static_cast<std::size_t>(d)];
    if (members.empty()) continue;
    b.auditor.check_can_links(b.r, cc.tree(d), members, dom.domain(d).depth,
                              /*exact=*/false);
  }
  b.auditor.check_expected(b.r, build_cancan(net), "cancan.links");
  return std::move(b.r);
}

audit::AuditReport audit_chord_prox(const OverlayNetwork& net,
                                    const LinkTable& links) {
  Battery b(net, links);
  const GroupedOverlay groups(net);
  b.auditor.check_group_cliques(b.r, groups);
  return std::move(b.r);
}

audit::AuditReport audit_crescendo_prox(const OverlayNetwork& net,
                                        const LinkTable& links) {
  Battery b(net, links);
  const GroupedOverlay groups(net);
  b.auditor.check_group_cliques(b.r, groups);
  // Below the root the structure is plain Crescendo; the top-level merge
  // is group-based and not per-node ring-closed.
  b.auditor.check_ring_closure(b.r, 1, kAllLevels);
  return std::move(b.r);
}

// ---------------------------------------------------------------------------
// the table (canonical doctor-report order)

constexpr FamilyEntry kFamilies[] = {
    {"chord", build_chord_hook, make_router<ring_router>, audit_chord,
     make_stepper<ring_router>},
    {"symphony", build_symphony_hook, make_router<ring_router>, audit_flat_ring,
     make_stepper<ring_router>},
    {"nondet_chord", build_nondet_chord_hook, make_router<ring_router>,
     audit_flat_ring, make_stepper<ring_router>},
    {"kademlia", build_kademlia_hook, make_router<xor_router>, audit_kademlia,
     make_stepper<xor_router>},
    {"can", build_can_hook, make_router<can_router>, audit_can,
     make_stepper<can_router>},
    {"crescendo", build_crescendo_hook, make_router<ring_router>,
     audit_crescendo, make_stepper<ring_router>},
    {"clique_crescendo", build_clique_crescendo_hook, make_router<ring_router>,
     audit_clique_crescendo, make_stepper<ring_router>},
    {"cacophony", build_cacophony_hook, make_router<ring_router>,
     audit_level_rings, make_stepper<ring_router>},
    {"nondet_crescendo", build_nondet_crescendo_hook, make_router<ring_router>,
     audit_level_rings, make_stepper<ring_router>},
    {"kandy", build_kandy_hook, make_router<xor_router>, audit_kandy,
     make_stepper<xor_router>},
    {"cancan", build_cancan_hook, make_router<cancan_router>, audit_cancan,
     make_stepper<cancan_router>},
    {"chord_prox", build_chord_prox_hook, make_router<group_router>,
     audit_chord_prox, make_stepper<group_router>},
    {"crescendo_prox", build_crescendo_prox_hook, make_router<group_router>,
     audit_crescendo_prox, make_stepper<group_router>},
};

constexpr std::size_t kFamilyCount = std::size(kFamilies);

constexpr std::array<std::string_view, kFamilyCount> make_names() {
  std::array<std::string_view, kFamilyCount> names{};
  for (std::size_t i = 0; i < kFamilyCount; ++i) names[i] = kFamilies[i].name;
  return names;
}
constexpr std::array<std::string_view, kFamilyCount> kNames = make_names();

}  // namespace

QueryStats FamilyRouter::run(const QueryEngine& engine,
                             std::span<const Query> queries,
                             std::vector<RouteProbe>* per_query) const {
  return std::visit(
      [&](const auto& r) { return engine.run(queries, r, per_query); },
      *router);
}

ResilientStats FamilyRouter::run_resilient(
    const QueryEngine& engine, std::span<const Query> queries,
    const FaultPlan& plan, std::vector<RouteProbe>* per_query) const {
  return std::visit(
      [&](const auto& r) {
        return engine.run_resilient(queries, r, plan, per_query);
      },
      *router);
}

ResilientStats FamilyRouter::run_resilient_with(
    const QueryEngine& engine, std::span<const Query> queries,
    const FailureSet& dead, const FaultPlan& plan,
    std::vector<RouteProbe>* per_query) const {
  return std::visit(
      [&](const auto& r) {
        return engine.run_resilient_with(queries, r, dead, plan, per_query);
      },
      *router);
}

std::span<const FamilyEntry> families() { return kFamilies; }

std::span<const std::string_view> family_names() { return kNames; }

bool is_family(std::string_view name) {
  for (const FamilyEntry& e : kFamilies) {
    if (e.name == name) return true;
  }
  return false;
}

std::string family_list() {
  std::string out;
  for (const FamilyEntry& e : kFamilies) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

const FamilyEntry& family(std::string_view name) {
  for (const FamilyEntry& e : kFamilies) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument("unknown family '" + std::string(name) +
                              "' (families: " + family_list() + ")");
}

LinkTable build_family(const OverlayNetwork& net, std::string_view name,
                       std::uint64_t seed) {
  Rng rng(seed * 2 + 1);
  return family(name).build(net, rng);
}

audit::AuditReport audit_family(std::string_view name,
                                const OverlayNetwork& net,
                                const LinkTable& links) {
  return family(name).audit(net, links);
}

}  // namespace canon::registry
