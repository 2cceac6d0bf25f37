// Tests for the JSONL event journal: the envelope/sequence contract, the
// DynamicCrescendo and MessageSimulator emitters, and the churn acceptance
// property — a journaled churn run replays to the same healthy verdict as
// a from-scratch audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditor.h"
#include "overlay/family_registry.h"
#include "canon/crescendo.h"
#include "common/rng.h"
#include "hierarchy/generators.h"
#include "maintenance/dynamic_crescendo.h"
#include "overlay/message_sim.h"
#include "overlay/population.h"
#include "telemetry/journal.h"

namespace canon {
namespace {

using telemetry::EventJournal;
using telemetry::JsonValue;
using telemetry::read_journal;

TEST(Journal, RoundTripPreservesEventsAndSequence) {
  std::ostringstream os;
  EventJournal journal(os);
  EXPECT_EQ(journal.join(0xABCDu, {1, 2}, 3, 10), 0u);
  EXPECT_EQ(journal.leave(0xABCDu, 9), 1u);
  EXPECT_EQ(journal.repair("leave", 0xABCDu, 7), 2u);
  EXPECT_EQ(journal.lookup_failure(4, 0xFFu, 12), 3u);
  EXPECT_EQ(journal.audit_snapshot(9, 1000, 0), 4u);
  EXPECT_EQ(journal.events(), 5u);

  std::istringstream is(os.str());
  const std::vector<JsonValue> events = read_journal(is);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].get("seq")->as_int(), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(events[0].get("type")->as_string(), "join");
  EXPECT_EQ(events[0].get("id")->as_int(), 0xABCD);
  ASSERT_TRUE(events[0].get("path")->is_array());
  EXPECT_EQ(events[0].get("path")->items().size(), 2u);
  EXPECT_EQ(events[0].get("lookup_hops")->as_int(), 3);
  EXPECT_EQ(events[0].get("size")->as_int(), 10);
  EXPECT_EQ(events[1].get("type")->as_string(), "leave");
  EXPECT_EQ(events[2].get("cause")->as_string(), "leave");
  EXPECT_EQ(events[3].get("type")->as_string(), "lookup_failure");
  EXPECT_EQ(events[4].get("violations")->as_int(), 0);
}

TEST(Journal, CustomRecordEmbedsEnvelopeFirst) {
  std::ostringstream os;
  EventJournal journal(os);
  JsonValue fields = JsonValue::object();
  fields.set("answer", JsonValue(42));
  journal.record("custom", std::move(fields));
  const std::string line = os.str();
  EXPECT_EQ(line.find("{\"seq\":0,\"type\":\"custom\""), 0u) << line;
  EXPECT_THROW(journal.record("bad", JsonValue(1)), std::logic_error);
}

TEST(Journal, ReaderRejectsSequenceGapsAndGarbage) {
  {
    std::istringstream is(
        "{\"seq\":0,\"type\":\"join\"}\n{\"seq\":2,\"type\":\"leave\"}\n");
    EXPECT_THROW(read_journal(is), std::runtime_error);
  }
  {
    std::istringstream is("{\"seq\":0,\"type\":\"join\"}\nnot json\n");
    EXPECT_THROW(read_journal(is), std::runtime_error);
  }
  {
    std::istringstream is("{\"type\":\"join\"}\n");
    EXPECT_THROW(read_journal(is), std::runtime_error);
  }
  {  // blank lines are tolerated, order still enforced
    std::istringstream is(
        "{\"seq\":0,\"type\":\"a\"}\n\n{\"seq\":1,\"type\":\"b\"}\n");
    EXPECT_EQ(read_journal(is).size(), 2u);
  }
}

TEST(Journal, MissingFileThrows) {
  EXPECT_THROW(telemetry::read_journal_file("/nonexistent/journal.jsonl"),
               std::runtime_error);
}

TEST(Journal, DynamicCrescendoEmitsJoinLeaveRepair) {
  std::ostringstream os;
  EventJournal journal(os);
  const IdSpace space(32);
  DynamicCrescendo dyn(space);
  dyn.set_journal(&journal);
  dyn.join(OverlayNode{100, DomainPath({0}), -1});
  dyn.join(OverlayNode{200, DomainPath({1}), -1});
  dyn.leave(100);

  std::istringstream is(os.str());
  const std::vector<JsonValue> events = read_journal(is);
  ASSERT_EQ(events.size(), 6u);  // join+repair, join+repair, leave+repair
  EXPECT_EQ(events[0].get("type")->as_string(), "join");
  EXPECT_EQ(events[0].get("size")->as_int(), 1);
  EXPECT_EQ(events[1].get("type")->as_string(), "repair");
  EXPECT_EQ(events[1].get("cause")->as_string(), "join");
  EXPECT_EQ(events[2].get("type")->as_string(), "join");
  EXPECT_EQ(events[2].get("id")->as_int(), 200);
  EXPECT_EQ(events[2].get("path")->items()[0].as_int(), 1);
  EXPECT_EQ(events[4].get("type")->as_string(), "leave");
  EXPECT_EQ(events[4].get("id")->as_int(), 100);
  EXPECT_EQ(events[4].get("size")->as_int(), 1);
  EXPECT_EQ(events[5].get("cause")->as_string(), "leave");
}

TEST(Journal, EventSimEmitsLookupFailures) {
  // A network with a single stripped node cannot complete a lookup for a
  // key owned elsewhere... every node keeps only itself, so any lookup for
  // a key another node owns terminates unsuccessfully at the origin.
  Rng rng(3);
  const IdSpace space(16);
  std::vector<OverlayNode> nodes;
  nodes.push_back({100, {}, -1});
  nodes.push_back({200, {}, -1});
  const OverlayNetwork net(space, std::move(nodes));
  const LinkTable links =
      LinkTable::build(net.ids(), [](NodeIndex, LinkRow&) {});  // no links
  MessageSimulator sim(net, links);
  std::ostringstream os;
  EventJournal journal(os);
  SimSinks sinks;
  sinks.journal = &journal;
  sim.attach(sinks);
  sim.submit(0, 201, 0.0);  // responsible node is index 1; unreachable
  sim.run();
  ASSERT_FALSE(sim.lookups()[0].ok);
  std::istringstream is(os.str());
  const std::vector<JsonValue> events = read_journal(is);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].get("type")->as_string(), "lookup_failure");
  EXPECT_EQ(events[0].get("from")->as_int(), 0);
  EXPECT_EQ(events[0].get("key")->as_int(), 201);
}

TEST(Journal, LoadSnapshotEmitsTopNodes) {
  std::ostringstream os;
  EventJournal journal(os);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> top{
      {4, 17}, {0, 9}};
  EXPECT_EQ(journal.load_snapshot(125.0, top), 0u);

  std::istringstream is(os.str());
  const std::vector<JsonValue> events = telemetry::read_journal(is);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].get("type")->as_string(), "load_snapshot");
  EXPECT_DOUBLE_EQ(events[0].get("t_ms")->as_double(), 125.0);
  const JsonValue* nodes = events[0].get("nodes");
  ASSERT_TRUE(nodes && nodes->is_array());
  ASSERT_EQ(nodes->size(), 2u);
  EXPECT_EQ(nodes->items()[0].get("node")->as_int(), 4);
  EXPECT_EQ(nodes->items()[0].get("load")->as_int(), 17);
  EXPECT_EQ(nodes->items()[1].get("node")->as_int(), 0);
}

TEST(Journal, EventSimLoadSnapshotsAreDeterministic) {
  // Two identical simulator runs must journal byte-identical load
  // snapshots: windows land at fixed multiples of the snapshot window and
  // the serial simulator's load tallies are a pure function of the seed.
  const auto run_once = [](std::string* out) {
    Rng rng(17);
    PopulationSpec spec;
    spec.node_count = 128;
    spec.hierarchy.levels = 2;
    spec.hierarchy.fanout = 4;
    const OverlayNetwork net = make_population(spec, rng);
    const LinkTable links = build_crescendo(net);
    MessageSimulator sim(net, links);
    std::ostringstream os;
    EventJournal journal(os);
    SimSinks sinks;
    sinks.journal = &journal;
    sinks.snapshot_top_k = 3;
    sinks.snapshot_window_ms = 10.0;
    sim.attach(sinks);
    Rng qrng(5);
    for (int i = 0; i < 400; ++i) {
      sim.submit(static_cast<std::uint32_t>(qrng.uniform(net.size())),
                 net.space().wrap(qrng()), 0.1 * i);
    }
    sim.run();
    *out = os.str();
  };
  std::string first, second;
  run_once(&first);
  run_once(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Snapshots land on whole windows, each carrying <= top_k nodes sorted
  // by load descending, plus the final drain snapshot.
  std::istringstream is(first);
  int snapshots = 0;
  for (const JsonValue& ev : telemetry::read_journal(is)) {
    if (ev.get("type")->as_string() != "load_snapshot") continue;
    ++snapshots;
    const JsonValue* nodes = ev.get("nodes");
    ASSERT_TRUE(nodes && nodes->is_array());
    EXPECT_LE(nodes->size(), 3u);
    std::int64_t prev = -1;
    for (const JsonValue& n : nodes->items()) {
      const std::int64_t load = n.get("load")->as_int();
      if (prev >= 0) {
        EXPECT_LE(load, prev);
      }
      prev = load;
    }
  }
  EXPECT_GE(snapshots, 4);
}

// Acceptance: a >= 500-op churn run journals cleanly; the final snapshot
// is violation-free; and rebuilding the member set from the journal yields
// exactly the maintained structure (same verdict, same links).
TEST(Journal, ChurnRunReplaysToIdenticalVerdict) {
  Rng rng(99);
  const IdSpace space(32);
  HierarchySpec hier;
  hier.levels = 3;
  hier.fanout = 4;
  DynamicCrescendo dyn(space);
  std::ostringstream os;
  EventJournal journal(os);
  dyn.set_journal(&journal);

  std::uint64_t ops = 0;
  while (dyn.size() < 120) {  // grow: 120 journaled joins
    const auto ids = sample_unique_ids(1, space, rng);
    if (dyn.contains(ids[0])) continue;
    dyn.join(OverlayNode{ids[0], generate_hierarchy(1, hier, rng)[0], -1});
    ++ops;
  }
  for (int i = 0; i < 200; ++i) {  // churn: 200 leave/join pairs
    const auto victim =
        static_cast<std::uint32_t>(rng.uniform(dyn.network().size()));
    dyn.leave(dyn.network().id(victim));
    const auto ids = sample_unique_ids(1, space, rng);
    if (dyn.contains(ids[0])) {
      --i;
      continue;
    }
    dyn.join(OverlayNode{ids[0], generate_hierarchy(1, hier, rng)[0], -1});
    ops += 2;
  }
  ASSERT_GE(ops, 500u);

  // Final snapshot from the live (incrementally maintained) structure.
  const LinkTable& live = dyn.link_table();
  const audit::AuditReport live_report =
      registry::audit_family("crescendo", dyn.network(), live);
  journal.audit_snapshot(dyn.size(), live_report.total_checks(),
                         live_report.violations.size());
  EXPECT_TRUE(live_report.ok()) << live_report.summary();

  // Replay: reconstruct the member set from the journal alone.
  std::istringstream is(os.str());
  const std::vector<JsonValue> events = read_journal(is);
  std::map<NodeId, DomainPath> members;
  std::uint64_t final_snapshot_violations = 1;
  for (const JsonValue& ev : events) {
    const std::string& type = ev.get("type")->as_string();
    if (type == "join") {
      std::vector<std::uint16_t> branches;
      for (const JsonValue& b : ev.get("path")->items()) {
        branches.push_back(static_cast<std::uint16_t>(b.as_int()));
      }
      members[static_cast<NodeId>(ev.get("id")->as_int())] =
          DomainPath(std::move(branches));
    } else if (type == "leave") {
      members.erase(static_cast<NodeId>(ev.get("id")->as_int()));
    } else if (type == "audit_snapshot") {
      final_snapshot_violations =
          static_cast<std::uint64_t>(ev.get("violations")->as_int());
    }
  }
  EXPECT_EQ(final_snapshot_violations, 0u);
  ASSERT_EQ(members.size(), dyn.size());

  std::vector<OverlayNode> rebuilt;
  for (const auto& [id, path] : members) {
    rebuilt.push_back(OverlayNode{id, path, -1});
  }
  const OverlayNetwork net(space, std::move(rebuilt));
  const LinkTable scratch = build_crescendo(net);
  const audit::AuditReport replay_report =
      registry::audit_family("crescendo", net, scratch);
  EXPECT_EQ(replay_report.ok(), live_report.ok());

  // Verdict identity is not just boolean: the reconstructed from-scratch
  // structure must be exactly the maintained one (Section 2.3's claim).
  ASSERT_EQ(net.size(), dyn.network().size());
  for (std::uint32_t m = 0; m < net.size(); ++m) {
    ASSERT_EQ(net.id(m), dyn.network().id(m));
    const auto a = scratch.neighbors(m);
    const auto b = live.neighbors(m);
    ASSERT_TRUE(a.size() == b.size() &&
                std::equal(a.begin(), a.end(), b.begin()))
        << "links diverge at node " << m;
  }
}

}  // namespace
}  // namespace canon
