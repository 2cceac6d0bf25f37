// Unit tests for the overlay substrate: the network container, ring views,
// link tables, greedy routers and path metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "overlay/link_table.h"
#include "overlay/metrics.h"
#include "overlay/overlay_network.h"
#include "overlay/population.h"
#include "overlay/routing.h"
#include "same_network.h"
#include "telemetry/mem_stats.h"

namespace canon {
namespace {

OverlayNetwork small_net() {
  // IDs on a 4-bit ring: 0, 3, 5, 8, 10, 12 (mirrors the paper's Figure 2).
  std::vector<OverlayNode> nodes;
  for (const NodeId id : {0, 3, 5, 8, 10, 12}) {
    nodes.push_back(OverlayNode{id, DomainPath{}, -1});
  }
  return OverlayNetwork(IdSpace(4), std::move(nodes));
}

TEST(OverlayNetwork, SortsAndIndexesByIds) {
  const auto net = small_net();
  ASSERT_EQ(net.size(), 6u);
  for (std::uint32_t i = 1; i < net.size(); ++i) {
    EXPECT_LT(net.id(i - 1), net.id(i));
  }
  EXPECT_EQ(net.index_of(8), 3u);
  EXPECT_THROW(net.index_of(9), std::invalid_argument);
}

TEST(OverlayNetwork, RejectsDuplicatesAndOutOfRange) {
  std::vector<OverlayNode> dup = {{1, {}, -1}, {1, {}, -1}};
  EXPECT_THROW(OverlayNetwork(IdSpace(4), dup), std::invalid_argument);
  std::vector<OverlayNode> big = {{16, {}, -1}};
  EXPECT_THROW(OverlayNetwork(IdSpace(4), big), std::invalid_argument);
}

TEST(OverlayNetwork, DerivedNetworkMatchesConstructor) {
  // Joins and leaves from empty up to about 100 nodes and back to empty.
  // Ragged paths over three branches open and empty domains at every
  // depth; half the joiners carry no attachment, so the attachment array
  // starts empty and is materialized by the first attached joiner.
  Rng rng(31);
  const IdSpace space(10);
  std::vector<OverlayNode> members;
  OverlayNetwork net(space, members);
  for (int op = 0; op < 800; ++op) {
    const bool grow = op < 400 ? rng.uniform(4) != 0 : rng.uniform(4) == 0;
    if (net.size() == 0 || (grow && net.size() < space.mask())) {
      OverlayNode joiner;
      do {
        joiner.id = rng() & space.mask();
      } while (std::binary_search(net.ids().begin(), net.ids().end(),
                                  joiner.id));
      std::vector<std::uint16_t> branches(rng.uniform(4));
      for (auto& b : branches) b = static_cast<std::uint16_t>(rng.uniform(3));
      joiner.domain = DomainPath(std::move(branches));
      joiner.attach =
          rng.uniform(2) == 0 ? -1 : static_cast<std::int32_t>(rng.uniform(50));
      net = OverlayNetwork(net, joiner);
      members.push_back(joiner);
    } else {
      const auto leaver = static_cast<NodeIndex>(rng.uniform(net.size()));
      const NodeId id = net.id(leaver);
      net = OverlayNetwork(net, leaver);
      std::erase_if(members, [&](const OverlayNode& m) { return m.id == id; });
    }
    ASSERT_TRUE(same_network(net, OverlayNetwork(space, members)))
        << "op " << op << ", " << net.size() << " nodes";
  }
  // The derivation keeps the constructor's validation.
  const OverlayNetwork small = small_net();
  EXPECT_THROW(OverlayNetwork(small, OverlayNode{16, {}, -1}),
               std::invalid_argument);
  EXPECT_THROW(OverlayNetwork(small, OverlayNode{5, {}, -1}),
               std::invalid_argument);
  EXPECT_THROW(OverlayNetwork(small, NodeIndex{6}), std::out_of_range);
  const OverlayNetwork empty(IdSpace(4), std::vector<OverlayNode>{});
  EXPECT_THROW(OverlayNetwork(empty, NodeIndex{0}), std::out_of_range);
}

TEST(OverlayNetwork, Responsible) {
  const auto net = small_net();
  // Responsibility: largest ID <= key (paper footnote 3), wrapping.
  EXPECT_EQ(net.id(net.responsible(0)), 0u);
  EXPECT_EQ(net.id(net.responsible(1)), 0u);
  EXPECT_EQ(net.id(net.responsible(3)), 3u);
  EXPECT_EQ(net.id(net.responsible(4)), 3u);
  EXPECT_EQ(net.id(net.responsible(15)), 12u);
}

TEST(OverlayNetwork, XorClosestBruteForceAgreement) {
  Rng rng(21);
  PopulationSpec spec;
  spec.node_count = 300;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId key = net.space().wrap(rng());
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < net.size(); ++i) {
      if (net.space().xor_distance(net.id(i), key) <
          net.space().xor_distance(net.id(best), key)) {
        best = i;
      }
    }
    EXPECT_EQ(net.xor_closest(key), best) << "key=" << key;
  }
}

TEST(RingView, SuccessorWrapsAroundZero) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(net.id(ring.successor(13)), 0u);
  EXPECT_EQ(net.id(ring.successor(0)), 0u);
  EXPECT_EQ(net.id(ring.successor(1)), 3u);
}

TEST(RingView, FirstAtDistanceMatchesChordRule) {
  const auto net = small_net();
  const RingView ring = net.ring();
  // From node 0: closest node at distance >= 1, 2, 4 is node 3; >= 8 is 8.
  EXPECT_EQ(net.id(ring.first_at_distance(0, 1)), 3u);
  EXPECT_EQ(net.id(ring.first_at_distance(0, 4)), 5u);
  EXPECT_EQ(net.id(ring.first_at_distance(0, 8)), 8u);
  EXPECT_EQ(ring.first_at_distance(0, 17), RingView::kNone);
}

TEST(RingView, CountAndSelect) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(ring.count_in(0, 6), 3u);   // ids 0, 3, 5
  EXPECT_EQ(ring.count_in(13, 4), 1u);  // wraps: id 0
  EXPECT_EQ(ring.count_in(0, 16), 6u);  // full ring
  EXPECT_EQ(ring.count_in(6, 0), 0u);
  // The k-th member of [lo, lo+len) sits k positions past lo's successor.
  EXPECT_EQ(ring.id_at((ring.successor_pos(0) + 1) % ring.size()), 3u);
  EXPECT_EQ(ring.id_at(ring.successor_pos(13)), 0u);
}

// RingView::seek against std::lower_bound over the member IDs, for a key
// from every valid start position 0..size(): a fixed case beside a seeded
// sweep.
::testing::AssertionResult seek_matches_lower_bound(const RingView& ring,
                                                    NodeId key) {
  std::vector<NodeId> ids;
  for (std::size_t p = 0; p < ring.size(); ++p) ids.push_back(ring.id_at(p));
  const auto want = static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), key) - ids.begin());
  for (std::size_t from = 0; from <= ring.size(); ++from) {
    const std::size_t got = ring.seek(key, from);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "seek(" << key << ", " << from << ") = " << got << ", want "
             << want << " (ring of " << ring.size() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RingView, SeekFixedCaseMatchesLowerBound) {
  // The Figure 2 ring, flat and split into the domains {0, 5, 10} and
  // {3, 8, 12}; the second leaves keys below its list.
  std::vector<OverlayNode> nodes;
  for (const auto& [id, branch] :
       {std::pair<NodeId, std::uint16_t>{0, 0}, {3, 1}, {5, 0}, {8, 1},
        {10, 0}, {12, 1}}) {
    nodes.push_back(OverlayNode{id, DomainPath{branch}, -1});
  }
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  const RingView flat = net.ring();
  const RingView low = net.domain_ring(net.domains().domain_of(0, 1));
  const RingView high = net.domain_ring(net.domains().domain_of(1, 1));
  ASSERT_EQ(low.size(), 3u);
  ASSERT_EQ(high.id_at(0), 3u);
  for (const RingView& ring : {flat, low, high}) {
    for (NodeId key = 0; key < 16; ++key) {
      EXPECT_TRUE(seek_matches_lower_bound(ring, key));
    }
  }
  // On a member, between two, above every member, below every member.
  EXPECT_EQ(flat.seek(8, 0), 3u);
  EXPECT_EQ(flat.seek(9, 6), 4u);
  EXPECT_EQ(flat.seek(13, 2), 6u);
  EXPECT_EQ(high.seek(1, 3), 0u);
}

TEST(RingView, SeekRandomSweepMatchesLowerBound) {
  Rng rng(2201);
  for (const int bits : {10, 32, 64}) {
    for (const std::size_t n : {1u, 2u, 7u, 200u}) {
      for (const int levels : {1, 3}) {
        PopulationSpec spec;
        spec.node_count = n;
        spec.id_bits = bits;
        spec.hierarchy.levels = levels;
        spec.hierarchy.fanout = 3;
        const auto net = make_population(spec, rng);
        const IdSpace& space = net.space();
        for (int d = 0; d < net.domains().domain_count(); ++d) {
          const RingView ring = net.domain_ring(d);
          // Keys on, just below and just above every member, the ends of
          // the space, and random keys.
          std::vector<NodeId> keys = {0, space.mask()};
          for (std::size_t p = 0; p < ring.size(); ++p) {
            const NodeId id = ring.id_at(p);
            keys.insert(keys.end(),
                        {id, space.wrap(id - 1), space.wrap(id + 1)});
          }
          for (int i = 0; i < 20; ++i) keys.push_back(space.wrap(rng()));
          for (const NodeId key : keys) {
            ASSERT_TRUE(seek_matches_lower_bound(ring, key))
                << "bits=" << bits << " n=" << n << " levels=" << levels
                << " domain " << d;
          }
        }
      }
    }
  }
}

TEST(RingView, SuccessorDistance) {
  const auto net = small_net();
  const RingView ring = net.ring();
  EXPECT_EQ(ring.successor_distance(0), 3u);
  EXPECT_EQ(ring.successor_distance(12), 4u);  // wraps to 0
}

TEST(RingView, SingletonSuccessorDistanceUnbounded) {
  std::vector<OverlayNode> nodes = {{5, {}, -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  EXPECT_EQ(net.ring().successor_distance(5),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LinkTable, BuildSortsDedupsAndDropsSelfLinks) {
  const std::vector<NodeId> ids = {10, 20, 30, 40};
  const LinkTable t = LinkTable::build(ids, [](NodeIndex m, LinkRow& row) {
    if (m == 0) row = {3, 1, 0, 1};  // self-link and duplicate dropped
    if (m == 2) row = {2, 2};        // nothing left but self-links
  });
  ASSERT_EQ(t.node_count(), 4u);
  const auto row0 = t.neighbors(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 1u);
  EXPECT_EQ(row0[1], 3u);
  EXPECT_EQ(t.degree(2), 0u);
  EXPECT_TRUE(t.has_link(0, 1));
  EXPECT_FALSE(t.has_link(1, 0));
  EXPECT_EQ(t.total_links(), 2u);
  EXPECT_DOUBLE_EQ(t.mean_degree(), 0.5);
  // The same rule on a single row, as maintenance and the auditor use it.
  LinkRow row = {3, 1, 0, 1};
  sanitize_row(0, ids.size(), row);
  EXPECT_EQ(row, (LinkRow{1, 3}));
}

TEST(LinkTable, OutOfRangeTargetThrows) {
  const std::vector<NodeId> ids = {1, 2, 3};
  EXPECT_THROW(LinkTable::build(ids,
                                [](NodeIndex m, LinkRow& row) {
                                  if (m == 1) row.push_back(3);
                                }),
               std::out_of_range);
  LinkRow row = {0, 3};
  EXPECT_THROW(sanitize_row(1, ids.size(), row), std::out_of_range);
}

TEST(LinkTable, EmptyAndSingleNodeTables) {
  const LinkTable empty =
      LinkTable::build({}, [](NodeIndex, LinkRow&) { FAIL(); });
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.total_links(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean_degree(), 0.0);
  EXPECT_TRUE(empty == LinkTable());

  const std::vector<NodeId> one = {7};
  const LinkTable single =
      LinkTable::build(one, [](NodeIndex m, LinkRow& row) { row = {m, m}; });
  EXPECT_EQ(single.node_count(), 1u);
  EXPECT_EQ(single.degree(0), 0u);
  EXPECT_TRUE(single.neighbor_ids(0).empty());
}

TEST(LinkTable, ShardedBuildMatchesPerNodeReference) {
  // A population spanning several build shards, the last one partial:
  // every row equals the per-node reference (sorted, unique, no self)
  // with inline IDs aligned to its targets, at any thread count, and the
  // progress hook counts every shard.
  const std::size_t n = 2000;
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = 3 * i + 1;
  const auto add_links = [n](NodeIndex m, LinkRow& row) {
    std::uint64_t x = m * 0x9e3779b97f4a7c15ULL + 1;
    for (int j = 0; j < 12; ++j) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ULL;
      row.push_back(static_cast<NodeIndex>(x % n));
      if (j % 4 == 0) row.push_back(m);           // self-link
      if (j % 3 == 0) row.push_back(row.front());  // duplicate
    }
  };
  LinkTable baseline;
  for (const int threads : {1, 2, 7}) {
    set_parallel_threads(threads);
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> total_shards{0};
    const LinkTable t = LinkTable::build(
        ids, add_links, [&](std::size_t done, std::size_t shards) {
          ++calls;
          total_shards = shards;
          EXPECT_LE(done, shards);
        });
    EXPECT_GT(total_shards.load(), 1u) << "population fits one shard";
    EXPECT_EQ(calls.load(), total_shards.load());
    ASSERT_EQ(t.node_count(), n);
    for (NodeIndex m = 0; m < n; ++m) {
      LinkRow want;
      add_links(m, want);
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      want.erase(std::remove(want.begin(), want.end(), m), want.end());
      const auto got = t.neighbors(m);
      ASSERT_EQ(LinkRow(got.begin(), got.end()), want) << m;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(t.neighbor_ids(m)[k], ids[got[k]]);
      }
    }
    if (threads == 1) {
      baseline = t;
    } else {
      EXPECT_TRUE(t == baseline) << "threads=" << threads;
    }
  }
  set_parallel_threads(0);
}

/// A link rule on node IDs alone, so a node's row in one population is
/// its row in another, mapped to that population's indices.
bool hashed_link(NodeId x, NodeId y) {
  std::uint64_t h = (x * 0x9e3779b97f4a7c15ULL) ^ (y + 0x632be59bd9b4e019ULL);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  return h % 4 == 0;
}

/// Rows of the hashed rule over `ids`, plus a self-link and a duplicate
/// for the row rule to drop.
LinkTable::AddLinks hashed_rows(const std::vector<NodeId>& ids) {
  return [&ids](NodeIndex m, LinkRow& row) {
    for (NodeIndex j = 0; j < ids.size(); ++j) {
      if (hashed_link(ids[m], ids[j])) row.push_back(j);
    }
    row.push_back(m);
    row.push_back(row.front());
  };
}

/// The link_table.csr bytes charged for the table `make` returns.
std::uint64_t csr_bytes(const std::function<LinkTable()>& make) {
  telemetry::MemoryAccountant acct;
  telemetry::install_mem_accountant(&acct);
  const LinkTable table = make();
  telemetry::install_mem_accountant(nullptr);
  return acct.tags().at("link_table.csr").current;
}

/// Derives the table over `prev_ids` across one change, recomputing the
/// rows that must be (the joiner's and every row linking to the changed
/// node) plus `extra` (new indices), and checks it against build() over
/// the changed IDs, ledger charge included.
void expect_derive_matches_build(const std::vector<NodeId>& prev_ids,
                                 IndexChange change, NodeId joiner,
                                 std::vector<NodeIndex> extra) {
  std::vector<NodeId> ids = prev_ids;
  NodeId changed = joiner;
  if (change.insert) {
    ids.insert(ids.begin() + change.at, joiner);
  } else {
    changed = ids[change.at];
    ids.erase(ids.begin() + change.at);
  }
  ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  std::vector<NodeIndex> dirty;
  for (NodeIndex m = 0; m < ids.size(); ++m) {
    const bool required = ids[m] == changed || hashed_link(ids[m], changed);
    if (required || std::find(extra.begin(), extra.end(), m) != extra.end()) {
      dirty.push_back(m);
    }
  }
  const LinkTable prev = LinkTable::build(prev_ids, hashed_rows(prev_ids));
  const auto derived = [&] {
    return LinkTable::derive(prev, ids, change, dirty, hashed_rows(ids));
  };
  const auto built = [&] { return LinkTable::build(ids, hashed_rows(ids)); };
  EXPECT_TRUE(derived() == built())
      << (change.insert ? "insert at " : "erase at ") << change.at << ", "
      << dirty.size() << " dirty rows";
  EXPECT_EQ(csr_bytes(derived), csr_bytes(built));
}

TEST(LinkTable, DeriveMatchesBuildOverTheSameRows) {
  // IDs 10, 20, ..., 400: about a quarter of the rows link to any node.
  std::vector<NodeId> ids(40);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 10 * (i + 1);
  const auto n = static_cast<NodeIndex>(ids.size());
  // Inserts at index 0, in the middle and at n (the new last index): the
  // required rows only, then with dirty rows beside the pivot and at both
  // ends.
  for (const auto& [at, joiner] :
       {std::pair<NodeIndex, NodeId>{0, 5}, {20, 205}, {n, 1000}}) {
    SCOPED_TRACE("insert at " + std::to_string(at));
    expect_derive_matches_build(ids, {at, true}, joiner, {});
    expect_derive_matches_build(
        ids, {at, true}, joiner,
        {0, at == 0 ? 0 : at - 1, at + 1, n});
  }
  // Erases at index 0, in the middle and at n - 1, likewise.
  for (const NodeIndex at : {NodeIndex{0}, NodeIndex{20}, n - 1}) {
    SCOPED_TRACE("erase at " + std::to_string(at));
    expect_derive_matches_build(ids, {at, false}, 0, {});
    expect_derive_matches_build(ids, {at, false}, 0,
                                {0, at == 0 ? 0 : at - 1, at, n - 2});
  }
  // 0 -> 1 and 1 -> 0 nodes.
  expect_derive_matches_build({}, {0, true}, 7, {});
  expect_derive_matches_build({7}, {0, false}, 0, {});
}

TEST(LinkTable, DeriveRejectsWhatDoesNotFit) {
  std::vector<NodeId> prev_ids = {10, 20, 30, 40};
  const LinkTable prev = LinkTable::build(prev_ids, hashed_rows(prev_ids));
  const std::vector<NodeId> ids = {10, 15, 20, 30, 40};
  const auto rows = hashed_rows(ids);
  const IndexChange insert{1, true};
  const auto derive = [&](IndexChange change, std::vector<NodeIndex> dirty,
                          std::span<const NodeId> over,
                          const LinkTable::AddLinks& add_links) {
    return LinkTable::derive(prev, over, change, dirty, add_links);
  };
  EXPECT_NO_THROW(derive(insert, {1}, ids, rows));
  // A dirty row's target past the node count, as in build().
  EXPECT_THROW(derive(insert, {1}, ids,
                      [](NodeIndex, LinkRow& row) { row.push_back(5); }),
               std::out_of_range);
  // The inserted node's row must be dirty; dirty rows ascend, unique, in
  // range; the IDs and the change fit the table.
  EXPECT_THROW(derive(insert, {0}, ids, rows), std::invalid_argument);
  EXPECT_THROW(derive(insert, {2, 1}, ids, rows), std::invalid_argument);
  EXPECT_THROW(derive(insert, {1, 1}, ids, rows), std::invalid_argument);
  EXPECT_THROW(derive(insert, {1, 5}, ids, rows), std::invalid_argument);
  EXPECT_THROW(derive(insert, {1}, prev_ids, rows), std::invalid_argument);
  EXPECT_THROW(derive({5, true}, {1}, ids, rows), std::invalid_argument);
  EXPECT_THROW(derive({4, false}, {}, {prev_ids.data(), 3}, rows),
               std::invalid_argument);
}

// Builds the full Chord links on the small ring by brute force so the
// routers can be tested independently of the dht module.
LinkTable full_chord_links(const OverlayNetwork& net) {
  const RingView ring = net.ring();
  return LinkTable::build(net.ids(), [&](NodeIndex m, LinkRow& row) {
    for (int k = 0; k < net.space().bits(); ++k) {
      const auto v = ring.first_at_distance(net.id(m), std::uint64_t{1} << k);
      if (v != RingView::kNone) row.push_back(v);
    }
  });
}

TEST(RingRouter, ReachesResponsibleNodeForAllKeys) {
  const auto net = small_net();
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  for (std::uint32_t from = 0; from < net.size(); ++from) {
    for (NodeId key = 0; key < 16; ++key) {
      const Route r = router.route(from, key);
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.terminal(), net.responsible(key));
      EXPECT_EQ(r.source(), from);
    }
  }
}

TEST(RingRouter, NeverOvershoots) {
  const auto net = small_net();
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  for (std::uint32_t from = 0; from < net.size(); ++from) {
    for (NodeId key = 0; key < 16; ++key) {
      const Route r = router.route(from, key);
      // Clockwise distance to the key must strictly decrease along the path.
      for (std::size_t i = 1; i < r.path.size(); ++i) {
        EXPECT_LT(net.space().ring_distance(net.id(r.path[i]), key),
                  net.space().ring_distance(net.id(r.path[i - 1]), key));
      }
    }
  }
}

TEST(RingRouter, LookaheadNoWorseThanGreedy) {
  Rng rng(31);
  PopulationSpec spec;
  spec.node_count = 256;
  spec.id_bits = 20;
  const auto net = make_population(spec, rng);
  const auto links = full_chord_links(net);
  const RingRouter router(net, links);
  const LookaheadRouter lookahead(net, links);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t from =
        static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route greedy = router.route(from, key);
    const Route ahead = lookahead.route(from, key);
    EXPECT_TRUE(greedy.ok);
    EXPECT_TRUE(ahead.ok);
    EXPECT_EQ(ahead.terminal(), greedy.terminal());
    // Committing to the best 2-step plan is at least as fast as two greedy
    // steps, so the lookahead route is at most one hop longer overall.
    EXPECT_LE(ahead.hops(), greedy.hops() + 1);
  }
}

TEST(RingRouter, ValidatesLinkTable) {
  const auto net = small_net();
  const std::vector<NodeId> three = {0, 3, 5};
  const LinkTable wrong_size =
      LinkTable::build(three, [](NodeIndex, LinkRow&) {});
  EXPECT_THROW(RingRouter(net, wrong_size), std::invalid_argument);
}

TEST(XorRouter, ReachesXorClosestWithFullBuckets) {
  Rng rng(41);
  PopulationSpec spec;
  spec.node_count = 200;
  spec.id_bits = 16;
  const auto net = make_population(spec, rng);
  // Deterministic Kademlia-complete table: for every k, link to the
  // XOR-closest node in bucket [2^k, 2^{k+1}).
  const LinkTable t = LinkTable::build(net.ids(), [&](NodeIndex m,
                                                       LinkRow& row) {
    for (std::uint32_t v = 0; v < net.size(); ++v) {
      if (m == v) continue;
      // Link if v is the closest node in its bucket.
      const std::uint64_t d = net.space().xor_distance(net.id(m), net.id(v));
      bool closest = true;
      for (std::uint32_t w = 0; w < net.size(); ++w) {
        if (w == m || w == v) continue;
        const std::uint64_t dw =
            net.space().xor_distance(net.id(m), net.id(w));
        if (floor_log2(dw) == floor_log2(d) && dw < d) closest = false;
      }
      if (closest) row.push_back(v);
    }
  });
  const XorRouter router(net, t);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t from =
        static_cast<std::uint32_t>(rng.uniform(net.size()));
    const NodeId key = net.space().wrap(rng());
    const Route r = router.route(from, key);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.terminal(), net.xor_closest(key));
    // XOR distance strictly decreases hop by hop.
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      EXPECT_LT(net.space().xor_distance(net.id(r.path[i]), key),
                net.space().xor_distance(net.id(r.path[i - 1]), key));
    }
  }
}

TEST(Metrics, PathCostSumsHops) {
  Route r;
  r.path = {0, 2, 5};
  const auto cost = [](std::uint32_t a, std::uint32_t b) {
    return static_cast<double>(a + b);
  };
  EXPECT_DOUBLE_EQ(path_cost(r, cost), 2 + 7);
}

TEST(Metrics, HopOverlapFraction) {
  Route first;
  first.path = {0, 4, 7, 9};
  Route second;
  second.path = {1, 5, 7, 9};  // meets `first` at node 7
  const auto f = hop_overlap_fraction(first, second);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(*f, 1.0 / 3.0);

  Route trivial;
  trivial.path = {3};
  EXPECT_FALSE(hop_overlap_fraction(first, trivial).has_value());

  Route disjoint;
  disjoint.path = {1, 2, 3};
  EXPECT_DOUBLE_EQ(*hop_overlap_fraction(first, disjoint), 0.0);
}

TEST(Metrics, CostOverlapFraction) {
  Route first;
  first.path = {0, 4, 7, 9};
  Route second;
  second.path = {1, 5, 7, 9};
  const auto cost = [](std::uint32_t, std::uint32_t) { return 2.0; };
  const auto f = cost_overlap_fraction(first, second, cost);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(*f, 1.0 / 3.0);
}

TEST(Metrics, MulticastTreeDedupesEdges) {
  MulticastTree tree;
  Route a;
  a.path = {0, 2, 3};
  Route b;
  b.path = {1, 2, 3};  // shares edge 2->3
  tree.add_route(a);
  tree.add_route(b);
  EXPECT_EQ(tree.edge_count(), 3u);
}

TEST(Metrics, MulticastInterDomainEdges) {
  std::vector<OverlayNode> nodes = {{0, DomainPath({0}), -1},
                                    {4, DomainPath({0}), -1},
                                    {8, DomainPath({1}), -1},
                                    {12, DomainPath({1}), -1}};
  const OverlayNetwork net(IdSpace(4), std::move(nodes));
  MulticastTree tree;
  Route r;
  r.path = {0, 1, 2, 3};  // one edge crosses the level-1 boundary
  tree.add_route(r);
  EXPECT_EQ(tree.inter_domain_edges(net, 1), 1u);
  EXPECT_EQ(tree.inter_domain_edges(net, 0), 0u);
}

TEST(Population, BuildsRequestedShape) {
  Rng rng(51);
  PopulationSpec spec;
  spec.node_count = 500;
  spec.id_bits = 24;
  spec.hierarchy.levels = 3;
  spec.hierarchy.fanout = 4;
  const auto net = make_population(spec, rng);
  EXPECT_EQ(net.size(), 500u);
  EXPECT_EQ(net.space().bits(), 24);
  EXPECT_EQ(net.domains().max_depth(), 2);
}

}  // namespace
}  // namespace canon
