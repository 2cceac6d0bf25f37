// Serial/parallel equivalence of the whole construction pipeline.
//
// The contract (common/parallel.h, docs/PERFORMANCE.md): shard boundaries
// depend only on (n, grain), randomized builders draw from per-node
// Rng::fork streams, and every shard writes only its own rows — so a build
// at --threads=1 (the exact pre-parallel serial code path) and a build at
// any other thread count are byte-identical. These tests pin that promise
// for every link-builder family across 3 seeds x 2 hierarchy shapes on a
// population spanning several build shards, and for parallel_for itself
// (coverage, empty ranges, grain > n, exception propagation). The same
// families and shapes also pin a digest of every table on a smaller
// population, so a builder that changes a table or its RNG draw order
// fails by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "canon/cacophony.h"
#include "canon/cancan.h"
#include "canon/crescendo.h"
#include "canon/kandy.h"
#include "canon/mixed.h"
#include "canon/nondet_crescendo.h"
#include "canon/proximity.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/nondet_chord.h"
#include "dht/symphony.h"
#include "overlay/link_table.h"
#include "overlay/population.h"

namespace canon {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 1234};
constexpr int kParallelThreads = 4;

/// Restores the default thread count even if an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

struct Shape {
  const char* name;
  int levels;
  int fanout;
};

constexpr Shape kShapes[] = {
    {"flat", 1, 10},
    {"deep", 4, 10},
};

/// Population of the pinned digests: small enough to pin 90 tables.
constexpr std::size_t kDigestNodes = 512;
/// Population of the serial-vs-parallel checks: LinkTable::build runs in
/// fixed node shards, and a population inside one shard runs inline on
/// the calling thread at any thread count. This one spans several shards,
/// the last one partial, so the parallel builds really run concurrently
/// (EveryFamilySerialEqualsParallel asserts the shard count).
constexpr std::size_t kMultiShardNodes = 2000;

OverlayNetwork make_net(const Shape& shape, std::uint64_t seed,
                        std::size_t node_count = kDigestNodes) {
  Rng rng(seed);
  PopulationSpec spec;
  spec.node_count = node_count;
  spec.hierarchy.levels = shape.levels;
  spec.hierarchy.fanout = shape.fanout;
  return make_population(spec, rng);
}

/// One named builder; receives the network and the run seed so randomized
/// families can construct an identical base Rng for each invocation.
struct Family {
  const char* name;
  std::function<LinkTable(const OverlayNetwork&, std::uint64_t)> build;
};

const std::vector<Family>& families() {
  static const std::vector<Family> fams = {
      {"chord",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_chord(net);
       }},
      {"crescendo",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_crescendo(net);
       }},
      {"crescendo_streamed",  // the forwarder perfbench still calls
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_crescendo_streamed(net);
       }},
      {"clique_crescendo",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_clique_crescendo(net);
       }},
      {"can",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_can(net);
       }},
      {"cancan",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_cancan(net);
       }},
      {"symphony",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         Rng rng(seed * 2 + 1);
         return build_symphony(net, rng);
       }},
      {"nondet_chord",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         Rng rng(seed * 2 + 1);
         return build_nondet_chord(net, rng);
       }},
      {"kademlia_closest",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_kademlia(net);
       }},
      {"cacophony",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         Rng rng(seed * 2 + 1);
         return build_cacophony(net, rng);
       }},
      {"kandy_closest",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_kandy(net);
       }},
      {"kandy_closest_literal",
       [](const OverlayNetwork& net, std::uint64_t) {
         return build_kandy(net, MergePolicy::kLiteral);
       }},
      {"nondet_crescendo",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         Rng rng(seed * 2 + 1);
         return build_nondet_crescendo(net, rng);
       }},
      {"chord_prox",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         const GroupedOverlay groups(net);
         // Synthetic but deterministic pairwise cost: the builders only
         // need *some* latency oracle, identical across the two runs.
         const HopCost cost = [](std::uint32_t a, std::uint32_t b) {
           return static_cast<double>((a * 31u + b * 17u) % 97u + 1u);
         };
         Rng rng(seed * 2 + 1);
         return build_chord_prox(net, groups, cost, ProximityConfig{}, rng);
       }},
      {"crescendo_prox",
       [](const OverlayNetwork& net, std::uint64_t seed) {
         const GroupedOverlay groups(net);
         const HopCost cost = [](std::uint32_t a, std::uint32_t b) {
           return static_cast<double>((a * 31u + b * 17u) % 97u + 1u);
         };
         Rng rng(seed * 2 + 1);
         return build_crescendo_prox(net, groups, cost, ProximityConfig{},
                                     rng);
       }},
  };
  return fams;
}

/// Number of LinkTable::build shards a population of `net`'s size takes.
std::size_t build_shards(const OverlayNetwork& net) {
  std::atomic<std::size_t> shards{0};  // the hook runs on every worker
  LinkTable::build(
      net.ids(), [](NodeIndex, LinkRow&) {},
      [&shards](std::size_t, std::size_t total) { shards = total; });
  return shards;
}

TEST(ParallelDeterminism, EveryFamilySerialEqualsParallel) {
  ThreadGuard guard;
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : kSeeds) {
      const OverlayNetwork net = make_net(shape, seed, kMultiShardNodes);
      ASSERT_GE(build_shards(net), static_cast<std::size_t>(kParallelThreads))
          << "population fits in fewer shards than workers";
      for (const Family& fam : families()) {
        set_parallel_threads(1);
        const LinkTable serial = fam.build(net, seed);
        set_parallel_threads(kParallelThreads);
        const LinkTable parallel = fam.build(net, seed);
        EXPECT_TRUE(serial == parallel)
            << fam.name << " diverges at shape=" << shape.name
            << " seed=" << seed;
      }
    }
  }
}

/// FNV-1a over a table's rows: each row's degree, then its
/// targets.
std::uint64_t table_digest(const LinkTable& table) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((x >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (NodeIndex m = 0; m < table.node_count(); ++m) {
    const auto row = table.neighbors(m);
    mix(row.size());
    for (const NodeIndex v : row) mix(v);
  }
  return h;
}

struct PinnedDigest {
  const char* family;
  const char* shape;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Every family's table on the shapes and seeds above, as built by the
// per-exponent, per-bucket reference builders. A builder may search less,
// but any change to a table, or to the order in which a randomized builder
// draws from its Rng, shows up here by name.
constexpr PinnedDigest kPinnedDigests[] = {
    {"chord", "flat", 1, 0xffa976afc409f593ull},
    {"crescendo", "flat", 1, 0xffa976afc409f593ull},
    {"crescendo_streamed", "flat", 1, 0xffa976afc409f593ull},
    {"clique_crescendo", "flat", 1, 0xbaec899367182c25ull},
    {"can", "flat", 1, 0x7af52c1c8c98e9b5ull},
    {"cancan", "flat", 1, 0x7af52c1c8c98e9b5ull},
    {"symphony", "flat", 1, 0x1106a0df7e23b00eull},
    {"nondet_chord", "flat", 1, 0x64f264f820beb885ull},
    {"kademlia_closest", "flat", 1, 0x6ef508b84748fe19ull},
    {"cacophony", "flat", 1, 0x1106a0df7e23b00eull},
    {"kandy_closest", "flat", 1, 0x6ef508b84748fe19ull},
    {"kandy_closest_literal", "flat", 1, 0x6ef508b84748fe19ull},
    {"nondet_crescendo", "flat", 1, 0x64f264f820beb885ull},
    {"chord_prox", "flat", 1, 0x5689804face35a67ull},
    {"crescendo_prox", "flat", 1, 0x5689804face35a67ull},
    {"chord", "flat", 42, 0x7e1f12187c454b7bull},
    {"crescendo", "flat", 42, 0x7e1f12187c454b7bull},
    {"crescendo_streamed", "flat", 42, 0x7e1f12187c454b7bull},
    {"clique_crescendo", "flat", 42, 0xbaec899367182c25ull},
    {"can", "flat", 42, 0x34ba8aa35696133cull},
    {"cancan", "flat", 42, 0x34ba8aa35696133cull},
    {"symphony", "flat", 42, 0x2b531564db63153bull},
    {"nondet_chord", "flat", 42, 0x5f31eb98ad1af050ull},
    {"kademlia_closest", "flat", 42, 0xc5c50d4b674d5692ull},
    {"cacophony", "flat", 42, 0x2b531564db63153bull},
    {"kandy_closest", "flat", 42, 0xc5c50d4b674d5692ull},
    {"kandy_closest_literal", "flat", 42, 0xc5c50d4b674d5692ull},
    {"nondet_crescendo", "flat", 42, 0x5f31eb98ad1af050ull},
    {"chord_prox", "flat", 42, 0xff3814eeef7f6d00ull},
    {"crescendo_prox", "flat", 42, 0xff3814eeef7f6d00ull},
    {"chord", "flat", 1234, 0x1a0de67899db1f08ull},
    {"crescendo", "flat", 1234, 0x1a0de67899db1f08ull},
    {"crescendo_streamed", "flat", 1234, 0x1a0de67899db1f08ull},
    {"clique_crescendo", "flat", 1234, 0xbaec899367182c25ull},
    {"can", "flat", 1234, 0xd48ccfab79fc6e6cull},
    {"cancan", "flat", 1234, 0xd48ccfab79fc6e6cull},
    {"symphony", "flat", 1234, 0xa8336928a6e6bfb9ull},
    {"nondet_chord", "flat", 1234, 0xaf625875d288ad4bull},
    {"kademlia_closest", "flat", 1234, 0xc472c4a315f9d769ull},
    {"cacophony", "flat", 1234, 0xa8336928a6e6bfb9ull},
    {"kandy_closest", "flat", 1234, 0xc472c4a315f9d769ull},
    {"kandy_closest_literal", "flat", 1234, 0xc472c4a315f9d769ull},
    {"nondet_crescendo", "flat", 1234, 0xaf625875d288ad4bull},
    {"chord_prox", "flat", 1234, 0x706f3c02dc1e5205ull},
    {"crescendo_prox", "flat", 1234, 0x706f3c02dc1e5205ull},
    {"chord", "deep", 1, 0xffa976afc409f593ull},
    {"crescendo", "deep", 1, 0x4aad1f2a17eb7e10ull},
    {"crescendo_streamed", "deep", 1, 0x4aad1f2a17eb7e10ull},
    {"clique_crescendo", "deep", 1, 0x79df5f45de478908ull},
    {"can", "deep", 1, 0x7af52c1c8c98e9b5ull},
    {"cancan", "deep", 1, 0x8b426548396a9f25ull},
    {"symphony", "deep", 1, 0x1106a0df7e23b00eull},
    {"nondet_chord", "deep", 1, 0x64f264f820beb885ull},
    {"kademlia_closest", "deep", 1, 0x6ef508b84748fe19ull},
    {"cacophony", "deep", 1, 0xd1b8e3e206228906ull},
    {"kandy_closest", "deep", 1, 0xa173b9f8858167ddull},
    {"kandy_closest_literal", "deep", 1, 0x15cbaa47650be4d3ull},
    {"nondet_crescendo", "deep", 1, 0x979e8f5cfbd744c0ull},
    {"chord_prox", "deep", 1, 0x5689804face35a67ull},
    {"crescendo_prox", "deep", 1, 0x9c864fda2d85676ull},
    {"chord", "deep", 42, 0x7e1f12187c454b7bull},
    {"crescendo", "deep", 42, 0x557da3ac7a9f06b7ull},
    {"crescendo_streamed", "deep", 42, 0x557da3ac7a9f06b7ull},
    {"clique_crescendo", "deep", 42, 0x54f59009fe75f4efull},
    {"can", "deep", 42, 0x34ba8aa35696133cull},
    {"cancan", "deep", 42, 0xb7ade7da42dcf628ull},
    {"symphony", "deep", 42, 0x2b531564db63153bull},
    {"nondet_chord", "deep", 42, 0x5f31eb98ad1af050ull},
    {"kademlia_closest", "deep", 42, 0xc5c50d4b674d5692ull},
    {"cacophony", "deep", 42, 0x9078275e2156311full},
    {"kandy_closest", "deep", 42, 0x84a8be43a707dbe8ull},
    {"kandy_closest_literal", "deep", 42, 0x4e8cc239e9109d1ull},
    {"nondet_crescendo", "deep", 42, 0x1788fd9a82fab83dull},
    {"chord_prox", "deep", 42, 0xff3814eeef7f6d00ull},
    {"crescendo_prox", "deep", 42, 0xa1013519b6a25892ull},
    {"chord", "deep", 1234, 0x1a0de67899db1f08ull},
    {"crescendo", "deep", 1234, 0x58f61f542bba9f8aull},
    {"crescendo_streamed", "deep", 1234, 0x58f61f542bba9f8aull},
    {"clique_crescendo", "deep", 1234, 0x4d29382a4ddac72ull},
    {"can", "deep", 1234, 0xd48ccfab79fc6e6cull},
    {"cancan", "deep", 1234, 0x1a3d920ce9f355b0ull},
    {"symphony", "deep", 1234, 0xa8336928a6e6bfb9ull},
    {"nondet_chord", "deep", 1234, 0xaf625875d288ad4bull},
    {"kademlia_closest", "deep", 1234, 0xc472c4a315f9d769ull},
    {"cacophony", "deep", 1234, 0x8c2890562d2119eeull},
    {"kandy_closest", "deep", 1234, 0x59587f6b2ed218e6ull},
    {"kandy_closest_literal", "deep", 1234, 0xccf97729ddd3826bull},
    {"nondet_crescendo", "deep", 1234, 0xac8e8eef0ad6b5e6ull},
    {"chord_prox", "deep", 1234, 0x706f3c02dc1e5205ull},
    {"crescendo_prox", "deep", 1234, 0x7962c0e40cb23456ull},
};

TEST(ParallelDeterminism, EveryFamilyMatchesItsPinnedDigest) {
  std::size_t checked = 0;
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t seed : kSeeds) {
      const OverlayNetwork net = make_net(shape, seed);
      for (const Family& fam : families()) {
        const std::uint64_t digest = table_digest(fam.build(net, seed));
        const auto pin = std::find_if(
            std::begin(kPinnedDigests), std::end(kPinnedDigests),
            [&](const PinnedDigest& p) {
              return std::string_view(p.family) == fam.name &&
                     std::string_view(p.shape) == shape.name &&
                     p.seed == seed;
            });
        if (pin == std::end(kPinnedDigests)) {
          ADD_FAILURE() << "no pinned digest for {\"" << fam.name << "\", \""
                        << shape.name << "\", " << seed << ", 0x" << std::hex
                        << digest << std::dec << "ull}";
          continue;
        }
        ++checked;
        EXPECT_EQ(digest, pin->digest)
            << fam.name << " shape=" << shape.name << " seed=" << seed;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedDigests)) << "stale pinned entries";
}

TEST(ParallelDeterminism, RepeatedParallelBuildsAreIdentical) {
  // Same thread count twice: shard scheduling order must not leak into
  // the result either.
  ThreadGuard guard;
  const OverlayNetwork net = make_net(kShapes[1], 42, kMultiShardNodes);
  set_parallel_threads(kParallelThreads);
  for (const Family& fam : families()) {
    const LinkTable a = fam.build(net, 42);
    const LinkTable b = fam.build(net, 42);
    EXPECT_TRUE(a == b) << fam.name << " is not stable across runs";
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  set_parallel_threads(kParallelThreads);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  ThreadGuard guard;
  for (const int threads : {1, kParallelThreads}) {
    set_parallel_threads(threads);
    bool called = false;
    parallel_for(0, 64, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called) << "threads=" << threads;
  }
}

TEST(ParallelFor, GrainLargerThanRangeRunsInlineOnce) {
  ThreadGuard guard;
  set_parallel_threads(kParallelThreads);
  int calls = 0;
  std::size_t begin = 99, end = 0;
  parallel_for(10, 64, [&](std::size_t b, std::size_t e) {
    ++calls;
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 10u);
}

TEST(ParallelFor, ZeroGrainIsTreatedAsOne) {
  ThreadGuard guard;
  set_parallel_threads(kParallelThreads);
  std::vector<std::atomic<int>> hits(32);
  parallel_for(32, 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < 32; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, WorkerExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (const int threads : {1, kParallelThreads}) {
    set_parallel_threads(threads);
    EXPECT_THROW(
        parallel_for(1000, 8,
                     [&](std::size_t begin, std::size_t end) {
                       // Fire from whichever shard covers index 500 (the
                       // single inline call at threads=1 covers it too).
                       if (begin <= 500 && 500 < end) {
                         throw std::runtime_error("shard failure");
                       }
                     }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, PoolIsReusableAfterAnException) {
  ThreadGuard guard;
  set_parallel_threads(kParallelThreads);
  EXPECT_THROW(parallel_for(256, 4,
                            [](std::size_t, std::size_t) {
                              throw std::logic_error("boom");
                            }),
               std::logic_error);
  std::atomic<int> total{0};
  parallel_for(256, 4, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin),
                    std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ParallelFor, ThreadCountSettingRoundTrips) {
  ThreadGuard guard;
  set_parallel_threads(3);
  EXPECT_EQ(parallel_threads(), 3);
  set_parallel_threads(0);
  EXPECT_GE(parallel_threads(), 1);  // hardware_concurrency, at least 1
}

}  // namespace
}  // namespace canon
