// Tests for the structural health auditor: every family audits clean when
// healthy, and seeded corruptions are detected and attributed to the
// check, node, and level that were actually broken.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "audit/auditor.h"
#include "canon/cacophony.h"
#include "canon/crescendo.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "overlay/family_registry.h"
#include "overlay/population.h"
#include "telemetry/metrics.h"

namespace canon {

/// Test-only corruption hook (friend of LinkTable): produces the malformed
/// CSR layouts the public API is designed to make impossible.
struct LinkTableMutator {
  /// Reverses node's CSR row in place (targets and inline ids together, so
  /// only the sort order breaks, not the id alignment).
  static void reverse_row(LinkTable& t, std::uint32_t node) {
    const auto b = static_cast<std::ptrdiff_t>(t.offsets_[node]);
    const auto e = static_cast<std::ptrdiff_t>(t.offsets_[node + 1]);
    std::reverse(t.targets_.begin() + b, t.targets_.begin() + e);
    if (!t.target_ids_.empty()) {
      std::reverse(t.target_ids_.begin() + b, t.target_ids_.begin() + e);
    }
  }
};

namespace {

OverlayNetwork test_net(std::size_t n = 256, int levels = 3,
                        std::uint64_t seed = 7) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = levels;
  spec.hierarchy.fanout = 4;
  return make_population(spec, rng);
}

std::vector<std::uint32_t> row_copy(const LinkTable& t, std::uint32_t node) {
  const auto row = t.neighbors(node);
  return {row.begin(), row.end()};
}

/// `t` with node's row replaced by `row`, rebuilt through LinkTable::build.
LinkTable with_row(const OverlayNetwork& net, const LinkTable& t,
                   std::uint32_t node, const std::vector<std::uint32_t>& row) {
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& out) {
    if (m == node) {
      out.assign(row.begin(), row.end());
    } else {
      const auto old = t.neighbors(m);
      out.assign(old.begin(), old.end());
    }
  });
}

TEST(Auditor, EveryHealthyFamilyAuditsClean) {
  const OverlayNetwork net = test_net();
  for (const std::string_view family : registry::family_names()) {
    LinkTable links = registry::build_family(net, family, 7);
    const audit::AuditReport report =
        registry::audit_family(family, net, links);
    EXPECT_TRUE(report.ok())
        << family << ": " << report.summary();
    EXPECT_GT(report.total_checks(), 0u) << family;
    // Every battery that ran counted at least one assertion.
    for (const auto& [battery, n] : report.checks) {
      EXPECT_GT(n, 0u) << family << "/" << battery;
    }
  }
}

TEST(Auditor, FlatPopulationAuditsClean) {
  const OverlayNetwork net = test_net(128, /*levels=*/1, 11);
  for (const std::string_view family :
       {"chord", "crescendo", "kademlia", "kandy", "can", "cancan"}) {
    LinkTable links = registry::build_family(net, family, 11);
    EXPECT_TRUE(registry::audit_family(family, net, links).ok()) << family;
  }
}

TEST(Auditor, UnknownFamilyThrows) {
  const OverlayNetwork net = test_net(32, 1, 3);
  const LinkTable links = build_chord(net);
  EXPECT_THROW(registry::family("pastry"), std::invalid_argument);
  EXPECT_THROW(registry::audit_family("pastry", net, links),
               std::invalid_argument);
  EXPECT_FALSE(registry::is_family("pastry"));
  EXPECT_TRUE(registry::is_family("crescendo"));
  EXPECT_EQ(registry::family_names().size(), 13u);
  EXPECT_EQ(registry::families().size(), 13u);
  // The thrown message names the valid families, so a CLI typo is
  // self-correcting.
  try {
    registry::family("pastry");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crescendo"), std::string::npos);
  }
}

// Mutation: drop a Crescendo node's leaf-ring successor edge. The auditor
// must attribute every resulting violation to that node, and at least one
// must be a ring.closure miss at its leaf level.
TEST(AuditorMutation, CrescendoDroppedRingEdge) {
  const OverlayNetwork net = test_net();
  LinkTable links = build_crescendo(net);
  const std::uint32_t m = 17;
  const int depth = net.domains().node_depth(m);
  const RingView leaf_ring =
      net.domain_ring(net.domains().domain_chain(m).back());
  ASSERT_GE(leaf_ring.size(), 2u);
  const std::uint32_t succ = leaf_ring.first_at_distance(net.id(m), 1);
  ASSERT_TRUE(links.has_link(m, succ));

  std::vector<std::uint32_t> row = row_copy(links, m);
  row.erase(std::remove(row.begin(), row.end(), succ), row.end());
  links = with_row(net, links, m, row);

  const audit::AuditReport report =
      registry::audit_family("crescendo", net, links);
  ASSERT_FALSE(report.ok());
  bool leaf_closure_missed = false;
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.node, m) << v.check << ": " << v.detail;
    EXPECT_TRUE(v.check == "ring.closure" || v.check == "chord.finger")
        << v.check;
    if (v.check == "ring.closure" && v.level == depth) {
      leaf_closure_missed = true;
    }
  }
  EXPECT_TRUE(leaf_closure_missed);
}

// Mutation: drop a flat Chord node's farthest finger. chord.finger must
// report the missing link; ring closure (the successor) must stay intact.
TEST(AuditorMutation, ChordDroppedFarFinger) {
  const OverlayNetwork net = test_net();
  LinkTable links = build_chord(net);
  const std::uint32_t m = 99;
  std::vector<std::uint32_t> row = row_copy(links, m);
  ASSERT_GE(row.size(), 2u);
  const auto far = *std::max_element(
      row.begin(), row.end(), [&](std::uint32_t a, std::uint32_t b) {
        return net.space().ring_distance(net.id(m), net.id(a)) <
               net.space().ring_distance(net.id(m), net.id(b));
      });
  row.erase(std::remove(row.begin(), row.end(), far), row.end());
  links = with_row(net, links, m, row);

  const audit::AuditReport report =
      registry::audit_family("chord", net, links);
  ASSERT_FALSE(report.ok());
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.check, "chord.finger");
    EXPECT_EQ(v.node, m);
    EXPECT_NE(v.detail.find("missing"), std::string::npos) << v.detail;
  }
  EXPECT_EQ(report.checks.count("ring.closure"), 1u);  // battery ran...
  EXPECT_EQ(report.violations.size(), 1u);             // ...and stayed clean
}

// Mutation: empty one populated XOR bucket of a Kademlia node.
TEST(AuditorMutation, KademliaEmptiedBucket) {
  const OverlayNetwork net = test_net();
  Rng rng(7 * 2 + 1);
  LinkTable links = build_kademlia(net, BucketChoice::kClosest, rng);
  const std::uint32_t m = 42;
  std::vector<std::uint32_t> row = row_copy(links, m);
  ASSERT_FALSE(row.empty());
  const int victim_bucket = floor_log2(
      net.space().xor_distance(net.id(m), net.id(row.back())));
  row.erase(std::remove_if(row.begin(), row.end(),
                           [&](std::uint32_t v) {
                             return floor_log2(net.space().xor_distance(
                                        net.id(m), net.id(v))) ==
                                    victim_bucket;
                           }),
            row.end());
  links = with_row(net, links, m, row);

  const audit::AuditReport report =
      registry::audit_family("kademlia", net, links);
  ASSERT_FALSE(report.ok());
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.check, "xor.bucket");
    EXPECT_EQ(v.node, m);
    EXPECT_EQ(v.level, 0);
  }
}

// Mutation: truncate a Cacophony node's neighbor list to nothing — every
// per-level ring successor disappears at once.
TEST(AuditorMutation, CacophonyTruncatedSuccessors) {
  const OverlayNetwork net = test_net();
  Rng rng(7 * 2 + 1);
  LinkTable links = build_cacophony(net, rng);
  const std::uint32_t m = 3;
  links = with_row(net, links, m, {});

  const audit::AuditReport report =
      registry::audit_family("cacophony", net, links);
  ASSERT_FALSE(report.ok());
  std::vector<int> levels;
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.check, "ring.closure");
    EXPECT_EQ(v.node, m);
    levels.push_back(v.level);
  }
  // One missing successor per level whose domain ring has >= 2 members.
  std::size_t expected_levels = 0;
  for (const int d : net.domains().domain_chain(m)) {
    expected_levels += net.domain_ring(d).size() >= 2;
  }
  EXPECT_EQ(levels.size(), expected_levels);
}

// Mutation: swap the owners of two single-zone CAN nodes — both now own
// only a zone that does not contain their own ID.
TEST(AuditorMutation, CanSwappedZoneOwners) {
  const OverlayNetwork net = test_net(256, 1, 7);
  const CanNetwork can = build_can(net);
  auto zones = audit::StructureAuditor::extract_zones(
      can.tree, net.ring().members());

  // Find two distinct single-zone owners whose zones differ.
  std::map<std::uint32_t, int> zone_count;
  for (const auto& oz : zones) ++zone_count[oz.owner];
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < zones.size() && picks.size() < 2; ++i) {
    if (zone_count[zones[i].owner] == 1 &&
        (picks.empty() || zones[picks[0]].owner != zones[i].owner)) {
      picks.push_back(i);
    }
  }
  ASSERT_EQ(picks.size(), 2u);
  std::swap(zones[picks[0]].owner, zones[picks[1]].owner);

  const audit::StructureAuditor auditor(net, can.links);
  audit::AuditReport report;
  auditor.check_zone_list(report, zones, 0);
  ASSERT_FALSE(report.ok());
  std::vector<std::uint32_t> blamed;
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.check, "zone.containment");
    blamed.push_back(v.node);
  }
  std::sort(blamed.begin(), blamed.end());
  std::vector<std::uint32_t> expected = {zones[picks[0]].owner,
                                         zones[picks[1]].owner};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(blamed, expected);
}

// Mutation: delete a zone from the list — the tiling check must report the
// gap; the surviving zones still contain their owners.
TEST(AuditorMutation, CanMissingZoneIsAGap) {
  const OverlayNetwork net = test_net(256, 1, 7);
  const CanNetwork can = build_can(net);
  auto zones = audit::StructureAuditor::extract_zones(
      can.tree, net.ring().members());
  ASSERT_GE(zones.size(), net.size());
  zones.erase(zones.begin() + static_cast<std::ptrdiff_t>(zones.size() / 2));

  const audit::StructureAuditor auditor(net, can.links);
  audit::AuditReport report;
  auditor.check_zone_list(report, zones, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [](const audit::Violation& v) {
                            return v.check == "zone.tiling";
                          }));
}

// Mutation: desort a CSR row through the test-only backdoor (the public
// API re-sorts, so this is the only way to get a malformed layout).
TEST(AuditorMutation, DesortedCsrRow) {
  const OverlayNetwork net = test_net();
  LinkTable links = build_crescendo(net);
  std::uint32_t m = 0;
  while (links.degree(m) < 2) ++m;
  LinkTableMutator::reverse_row(links, m);

  const audit::StructureAuditor auditor(net, links);
  audit::AuditReport report;
  auditor.check_csr(report);
  ASSERT_FALSE(report.ok());
  for (const audit::Violation& v : report.violations) {
    EXPECT_EQ(v.check, "csr.row_sorted");
    EXPECT_EQ(v.node, m);
  }
}

TEST(Auditor, ReportToJsonSchema) {
  const OverlayNetwork net = test_net(128, 2, 9);
  LinkTable links = build_crescendo(net);
  links = with_row(net, links, 5, {});  // seed some violations
  const audit::AuditReport report =
      registry::audit_family("crescendo", net, links);
  ASSERT_FALSE(report.ok());

  const telemetry::JsonValue doc = report.to_json();
  ASSERT_TRUE(doc.is_object());
  EXPECT_FALSE(doc.get("ok")->as_bool());
  EXPECT_EQ(static_cast<std::size_t>(doc.get("violation_count")->as_int()),
            report.violations.size());
  ASSERT_TRUE(doc.get("checks")->is_object());
  EXPECT_EQ(doc.get("checks")->members().size(), report.checks.size());
  const auto& list = doc.get("violations")->items();
  ASSERT_EQ(list.size(), report.violations.size());
  for (const telemetry::JsonValue& v : list) {
    EXPECT_TRUE(v.get("check")->is_string());
    EXPECT_TRUE(v.get("node")->is_number() || v.get("node")->is_null());
    EXPECT_TRUE(v.get("level")->is_number());
    EXPECT_TRUE(v.get("detail")->is_string());
  }
  // A clean report round-trips too.
  const audit::AuditReport clean =
      registry::audit_family("crescendo", net, build_crescendo(net));
  EXPECT_TRUE(clean.to_json().get("ok")->as_bool());
}

TEST(Auditor, LivenessBatteryBlamesIsolatedSurvivors) {
  const OverlayNetwork net = test_net(64, 1, 5);
  const LinkTable links = build_chord(net);
  const audit::StructureAuditor auditor(net, links);

  // Fully live: both batteries run (one assertion per live node) and pass.
  audit::AuditReport clean;
  auditor.check_liveness(clean, FailureSet(net.size()), 4);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  EXPECT_EQ(clean.checks.at("live.degree"), net.size());
  EXPECT_EQ(clean.checks.at("live.leafset"), net.size());

  // leaf_set == 0 disables the leafset battery entirely.
  audit::AuditReport no_leaf;
  auditor.check_liveness(no_leaf, FailureSet(net.size()), 0);
  EXPECT_EQ(no_leaf.checks.count("live.leafset"), 0u);

  // Kill every neighbor of node 0 plus its 4 ring successors: node 0 must
  // be blamed by both batteries (dead nodes are never blamed).
  FailureSet dead(net.size());
  for (const std::uint32_t v : links.neighbors(0)) dead.kill(v);
  for (std::uint32_t step = 1; step <= 4; ++step) {
    dead.kill(step % static_cast<std::uint32_t>(net.size()));
  }
  audit::AuditReport r;
  auditor.check_liveness(r, dead, 4);
  ASSERT_FALSE(r.ok());
  bool degree_blamed = false;
  bool leafset_blamed = false;
  for (const audit::Violation& v : r.violations) {
    EXPECT_FALSE(dead.dead(v.node)) << v.check;
    if (v.node == 0 && v.check == "live.degree") degree_blamed = true;
    if (v.node == 0 && v.check == "live.leafset") leafset_blamed = true;
  }
  EXPECT_TRUE(degree_blamed);
  EXPECT_TRUE(leafset_blamed);
  EXPECT_EQ(r.checks.at("live.degree"), net.size() - dead.dead_count());
}

TEST(Auditor, MetricsCountersRecordChecksAndViolations) {
  const OverlayNetwork net = test_net(128, 2, 13);
  LinkTable links = build_crescendo(net);
  links = with_row(net, links, 8, {});
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* prev = telemetry::install_registry(&registry);
  const audit::AuditReport report =
      registry::audit_family("crescendo", net, links);
  telemetry::install_registry(prev);
  EXPECT_EQ(registry.counters().at("audit.checks").value(),
            report.total_checks());
  EXPECT_EQ(registry.counters().at("audit.violations").value(),
            report.violations.size());
}

}  // namespace
}  // namespace canon
