// Resource observatory tests: the MemoryAccountant ledger (hand-checked
// charges, scope/charge lifetimes, peak semantics), the flame-tree
// reconstruction from flat spans, the RSS probes, thread invariance of an
// instrumented full pipeline at --threads {1, 2, 7}, and — the number the
// whole subsystem exists for — attributed bytes reconciling against
// measured RSS growth at scale (NDEBUG-gated like tests/scale_test.cc).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "canon/crescendo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/population.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "telemetry/flame_export.h"
#include "telemetry/mem_stats.h"

namespace canon {
namespace {

using telemetry::MemCharge;
using telemetry::MemoryAccountant;
using telemetry::MemScope;

/// Uninstalls the accountant (and restores threads) even when an
/// assertion bails out early.
struct AccountantGuard {
  MemoryAccountant acct;
  AccountantGuard() { telemetry::install_mem_accountant(&acct); }
  ~AccountantGuard() { telemetry::install_mem_accountant(nullptr); }
};

struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

TEST(MemoryAccountant, HandCheckedChargesAndPeaks) {
  MemoryAccountant a;
  EXPECT_TRUE(a.empty());
  a.account("x", 100);
  a.account("y", 50);
  a.account("x", 25);
  EXPECT_EQ(a.current_bytes(), 175u);
  EXPECT_EQ(a.peak_bytes(), 175u);
  a.release("x", 125);
  EXPECT_EQ(a.current_bytes(), 50u);
  EXPECT_EQ(a.peak_bytes(), 175u);  // peaks never lower
  a.account("y", 10);
  const auto& tags = a.tags();
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags.at("x").current, 0u);
  EXPECT_EQ(tags.at("x").peak, 125u);
  EXPECT_EQ(tags.at("x").charges, 2u);
  EXPECT_EQ(tags.at("y").current, 60u);
  EXPECT_EQ(tags.at("y").peak, 60u);
  EXPECT_EQ(tags.at("y").charges, 2u);
}

TEST(MemoryAccountant, OverReleaseClampsWithoutCorruptingPeaks) {
  MemoryAccountant a;
  a.account("x", 100);
  a.release("x", 250);  // a charge site outliving its install window
  EXPECT_EQ(a.tags().at("x").current, 0u);
  EXPECT_EQ(a.tags().at("x").peak, 100u);
  EXPECT_EQ(a.current_bytes(), 0u);
  EXPECT_EQ(a.peak_bytes(), 100u);
}

TEST(MemoryAccountant, ProcessPeakSeesConcurrentTagsTogether) {
  // Two tags alive at once must register a combined process peak even
  // though neither tag's own peak reaches it.
  MemoryAccountant a;
  a.account("x", 100);
  a.account("y", 100);
  a.release("x", 100);
  a.release("y", 100);
  a.account("z", 150);
  EXPECT_EQ(a.peak_bytes(), 200u);
  EXPECT_EQ(a.tags().at("z").peak, 150u);
}

TEST(MemoryAccountant, ToJsonShapeMatchesLedger) {
  MemoryAccountant a;
  a.account("b_tag", 10);
  a.account("a_tag", 20);
  const telemetry::JsonValue v = a.to_json();
  EXPECT_EQ(v.get("attributed")->get("current_bytes")->as_int(), 30);
  EXPECT_EQ(v.get("attributed")->get("peak_bytes")->as_int(), 30);
  const telemetry::JsonValue* tags = v.get("tags");
  ASSERT_NE(tags, nullptr);
  // std::map ordering: report order is sorted by tag name.
  ASSERT_EQ(tags->members().size(), 2u);
  EXPECT_EQ(tags->members()[0].first, "a_tag");
  EXPECT_EQ(tags->members()[1].first, "b_tag");
  EXPECT_EQ(tags->get("a_tag")->get("charges")->as_int(), 1);
}

TEST(MemScope, ReleasesEverythingOnDestruction) {
  AccountantGuard g;
  {
    MemScope outer("outer", 100);
    EXPECT_EQ(g.acct.current_bytes(), 100u);
    {
      MemScope inner("inner");
      inner.add(40);
      inner.add(0);  // zero-byte adds never create a tag entry
      EXPECT_EQ(g.acct.current_bytes(), 140u);
    }
    EXPECT_EQ(g.acct.current_bytes(), 100u);
    outer.add(11);
    EXPECT_EQ(outer.held(), 111u);
  }
  EXPECT_EQ(g.acct.current_bytes(), 0u);
  EXPECT_EQ(g.acct.peak_bytes(), 140u);
  EXPECT_EQ(g.acct.tags().at("inner").peak, 40u);
}

TEST(MemScope, NoOpWithoutAccountant) {
  MemScope s("tag", 100);
  EXPECT_EQ(s.held(), 0u);  // nothing installed, nothing held
}

TEST(MemCharge, ResetMoveCopyAndDrop) {
  AccountantGuard g;
  MemCharge c("csr", 1000);
  EXPECT_EQ(g.acct.current_bytes(), 1000u);
  c.reset("csr", 600);  // re-charge replaces, does not stack
  EXPECT_EQ(g.acct.current_bytes(), 600u);
  // reset() drops before charging, so a shrink never spikes the peak.
  EXPECT_EQ(g.acct.tags().at("csr").peak, 1000u);

  MemCharge copied = c;  // copy owns its own charge
  EXPECT_EQ(g.acct.current_bytes(), 1200u);
  EXPECT_EQ(g.acct.tags().at("csr").peak, 1200u);
  MemCharge moved = std::move(copied);  // move transfers, no new charge
  EXPECT_EQ(g.acct.current_bytes(), 1200u);
  EXPECT_EQ(moved.held(), 600u);
  EXPECT_EQ(copied.held(), 0u);  // NOLINT(bugprone-use-after-move)

  moved.drop();
  EXPECT_EQ(g.acct.current_bytes(), 600u);
  c.drop();
  EXPECT_EQ(g.acct.current_bytes(), 0u);
}

TEST(MemCharge, DropAfterUninstallIsSafe) {
  MemCharge c;
  {
    AccountantGuard g;
    c.reset("tag", 100);
    EXPECT_EQ(c.held(), 100u);
  }
  // Accountant gone: drop() must still zero the holding without touching
  // the dead ledger (destruction-after-uninstall happens whenever a
  // structure outlives a bench row's accountant).
  c.drop();
  EXPECT_EQ(c.held(), 0u);
}

TEST(FlameTree, RebuildsNestingFromFlatSpans) {
  // root [0, 100), child a [10, 40), grandchild b [15, 20), child c
  // [50, 80) — self times: root 40, a 25, b 5, c 30.
  std::vector<telemetry::SpanRecord> spans = {
      {"c", 50, 30}, {"root", 0, 100}, {"b", 15, 5}, {"a", 10, 30}};
  const auto tree = telemetry::build_flame_tree(std::move(spans));
  ASSERT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree[0].span.name, "root");
  EXPECT_EQ(tree[0].parent, -1);
  EXPECT_DOUBLE_EQ(tree[0].self_us, 40);
  const std::string collapsed = telemetry::collapse_flame_tree(tree);
  EXPECT_EQ(collapsed,
            "root 40\nroot;a 25\nroot;a;b 5\nroot;c 30\n");
  const telemetry::JsonValue table = telemetry::flame_phase_table(tree);
  ASSERT_EQ(table.items().size(), 4u);
  EXPECT_EQ(table.items()[0].get("name")->as_string(), "root");
  EXPECT_DOUBLE_EQ(table.items()[0].get("self_us")->as_double(), 40);
  EXPECT_DOUBLE_EQ(table.items()[0].get("total_us")->as_double(), 100);
}

TEST(FlameTree, SiblingsWithIdenticalNamesAggregate) {
  // Two "shard" spans under one root: the phase table merges them, the
  // collapsed output keeps one line per path with summed self time.
  std::vector<telemetry::SpanRecord> spans = {
      {"root", 0, 100}, {"shard", 5, 20}, {"shard", 30, 40}};
  const auto tree = telemetry::build_flame_tree(std::move(spans));
  const std::string collapsed = telemetry::collapse_flame_tree(tree);
  EXPECT_EQ(collapsed, "root 40\nroot;shard 60\n");
  const telemetry::JsonValue table = telemetry::flame_phase_table(tree);
  ASSERT_EQ(table.items().size(), 2u);
  EXPECT_EQ(table.items()[0].get("name")->as_string(), "shard");
  EXPECT_EQ(table.items()[0].get("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(table.items()[0].get("self_us")->as_double(), 60);
}

TEST(RssProbes, ReportPlausibleValues) {
  const double current = telemetry::current_rss_mb();
  const double peak = telemetry::peak_rss_mb();
  EXPECT_GT(current, 0.0);
  EXPECT_GT(peak, 0.0);
  // The high-water mark can never sit below the current working set by
  // more than sampling noise.
  EXPECT_GE(peak * 1.05, current);
}

#ifdef NDEBUG
constexpr std::size_t kScaleNodes = std::size_t{1} << 18;
#else
constexpr std::size_t kScaleNodes = std::size_t{1} << 14;
#endif

OverlayNetwork scale_population(std::size_t n) {
  Rng rng(42);
  PopulationSpec spec;
  spec.node_count = n;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 10;
  return make_population(spec, rng);
}

/// Runs the instrumented mega-scale pipeline and returns the ledger's
/// JSON dump (the exact artifact the determinism contract covers).
std::string instrumented_pipeline_report() {
  MemoryAccountant acct;
  telemetry::install_mem_accountant(&acct);
  {
    const auto net = scale_population(kScaleNodes);
    const LinkTable links = build_crescendo(net);
    const RingRouter router(net, links);
    QueryEngine engine(net);
    const auto queries = uniform_workload(net, 5000, Rng(7));
    const QueryStats stats = engine.run(queries, router);
    EXPECT_EQ(stats.failures, 0u);
  }
  telemetry::install_mem_accountant(nullptr);
  return acct.to_json().dump();
}

TEST(ResourceReport, ByteIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  set_parallel_threads(1);
  const std::string t1 = instrumented_pipeline_report();
  set_parallel_threads(2);
  const std::string t2 = instrumented_pipeline_report();
  set_parallel_threads(7);
  const std::string t7 = instrumented_pipeline_report();
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t7);
}

TEST(ResourceReport, PipelineChargesEverySubsystemTag) {
  AccountantGuard g;
  const auto net = scale_population(kScaleNodes);
  const LinkTable links = build_crescendo(net);
  EXPECT_EQ(links.node_count(), net.size());
  for (const char* tag :
       {"overlay.soa", "hierarchy.path_pool", "hierarchy.domain_tree",
        "link_table.csr", "overlay.stream_chunks"}) {
    ASSERT_TRUE(g.acct.tags().contains(tag)) << tag;
    EXPECT_GT(g.acct.tags().at(tag).peak, 0u) << tag;
  }
  // The build's staging chunks are transient: charged, then fully
  // released once scattered into the CSR.
  EXPECT_EQ(g.acct.tags().at("overlay.stream_chunks").current, 0u);
  EXPECT_GT(g.acct.tags().at("link_table.csr").current, 0u);
}

#ifdef NDEBUG
TEST(ResourceReport, AttributedBytesReconcileWithMeasuredRss) {
  // The acceptance number: at scale, the tagged subsystems must own most
  // of the real memory growth. Debug builds skip this (sanitizer shadow
  // memory and unoptimized containers break any RSS ratio).
  const double before_mb = telemetry::current_rss_mb();
  AccountantGuard g;
  const auto net = scale_population(kScaleNodes);
  const LinkTable links = build_crescendo(net);
  EXPECT_EQ(links.node_count(), net.size());
  const double after_mb = telemetry::current_rss_mb();
  const double grown_mb = after_mb - before_mb;
  // Reconcile against the ledger's *peak*: glibc rarely returns freed
  // arena pages to the kernel, so measured RSS growth reflects the
  // high-water footprint — final structures plus the transient build
  // staging the ledger saw at its peak — not the final bytes alone.
  const double attributed_mb =
      static_cast<double>(g.acct.peak_bytes()) / (1024.0 * 1024.0);
  ASSERT_GT(grown_mb, 1.0) << "population too small to measure";
  // >= 90% of the measured growth must be attributed. The ledger may
  // legitimately exceed measured growth (malloc reuses freed pages the
  // kernel never reclaimed), so only the lower bound is asserted.
  EXPECT_GE(attributed_mb, 0.9 * grown_mb)
      << "attributed " << attributed_mb << " MB of " << grown_mb
      << " MB measured growth";
}
#endif

}  // namespace
}  // namespace canon
