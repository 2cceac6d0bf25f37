// Brute-force oracles for the ring and XOR link rules, shared by the flat
// (dht_test) and hierarchical (canon_family_test) builder tests.
//
// Each oracle restates one construction rule as a linear scan over the
// members of a node's domains — found by comparing domain paths, not
// through DomainTree or RingView — so it shares no search code with the
// builders it checks.
#ifndef CANON_TESTS_LINK_ORACLES_H
#define CANON_TESTS_LINK_ORACLES_H

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "dht/kademlia.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"

namespace canon::oracle {

/// A small population with IDs 0 and 2^bits - 1 always present (once
/// there are two nodes) and the rest unique random IDs. `levels` = 1 is
/// flat; deeper hierarchies have fanout 3 with uniform placement.
inline OverlayNetwork population(int bits, std::size_t n, int levels,
                                 std::uint64_t seed) {
  const IdSpace space(bits);
  Rng rng(seed);
  std::set<NodeId> ids = {0};
  if (n >= 2) ids.insert(space.mask());
  while (ids.size() < n) ids.insert(space.wrap(rng()));
  std::vector<OverlayNode> nodes;
  for (const NodeId id : ids) {
    std::vector<std::uint16_t> path;
    for (int l = 1; l < levels; ++l) {
      path.push_back(static_cast<std::uint16_t>(rng.uniform(3)));
    }
    nodes.push_back({id, DomainPath(std::move(path)), -1});
  }
  return OverlayNetwork(space, std::move(nodes));
}

/// One oracle case: the sizes, ID widths and shapes every oracle covers.
struct Case {
  int bits;
  std::size_t n;
  int levels;
  std::string name() const {
    return "bits=" + std::to_string(bits) + " n=" + std::to_string(n) +
           " levels=" + std::to_string(levels);
  }
};

/// n in {1, 2, 3, 64, 1000} x id_bits in {4, 8, 32, 64} (where n fits the
/// space) x the given shapes.
inline std::vector<Case> cases(std::initializer_list<int> shapes) {
  std::vector<Case> out;
  for (const int bits : {4, 8, 32, 64}) {
    for (const std::size_t n : {1u, 2u, 3u, 64u, 1000u}) {
      if (bits < 64 && n > (std::uint64_t{1} << bits)) continue;
      for (const int levels : shapes) out.push_back({bits, n, levels});
    }
  }
  return out;
}

/// Node m's leaf level (the depth of its domain path).
inline int leaf_level(const OverlayNetwork& net, NodeIndex m) {
  return net.path(m).depth();
}

/// The members other than m of m's level-`level` domain, by path scan.
inline std::vector<NodeIndex> others(const OverlayNetwork& net, NodeIndex m,
                                     int level) {
  std::vector<NodeIndex> out;
  for (NodeIndex v = 0; v < net.size(); ++v) {
    if (v != m && net.lca_level(m, v) >= level) out.push_back(v);
  }
  return out;
}

/// Whether distance d lies in bucket k, [2^k, 2^{k+1}). The top bucket of
/// a 64-bit space ends at 2^64, so it holds distance 2^64 - 1.
inline bool in_bucket(std::uint64_t d, int k) {
  return static_cast<int>(std::bit_width(d)) == k + 1;
}

/// Condition (b): distance d is strictly below the merge limit; kNoLimit
/// (no child ring, or a singleton one) admits every distance.
inline bool below_limit(std::uint64_t d, std::uint64_t limit) {
  return limit == kNoLimit || d < limit;
}

/// Clockwise distance from m to its nearest other member of `members`
/// (kNoLimit when there is none): Crescendo's merge limit.
inline std::uint64_t successor_distance(const OverlayNetwork& net,
                                        NodeIndex m,
                                        const std::vector<NodeIndex>& members) {
  std::uint64_t best = kNoLimit;
  for (const NodeIndex v : members) {
    best = std::min(best, net.space().ring_distance(net.id(m), net.id(v)));
  }
  return best;
}

/// Crescendo (Chord when flat): at every level, for each k the member at
/// the least ring distance >= 2^k, kept if closer than the child-ring
/// successor.
inline std::set<NodeIndex> crescendo_links(const OverlayNetwork& net,
                                           NodeIndex m) {
  const IdSpace& space = net.space();
  std::set<NodeIndex> links;
  std::uint64_t limit = kNoLimit;
  for (int level = leaf_level(net, m); level >= 0; --level) {
    const std::vector<NodeIndex> ring = others(net, m, level);
    for (int k = 0; k < space.bits(); ++k) {
      NodeIndex finger = kInvalidNodeIndex;
      std::uint64_t finger_d = 0;
      for (const NodeIndex v : ring) {
        const std::uint64_t d = space.ring_distance(net.id(m), net.id(v));
        if (d >= (std::uint64_t{1} << k) &&
            (finger == kInvalidNodeIndex || d < finger_d)) {
          finger = v;
          finger_d = d;
        }
      }
      if (finger != kInvalidNodeIndex && below_limit(finger_d, limit)) {
        links.insert(finger);
      }
    }
    limit = successor_distance(net, m, ring);
  }
  return links;
}

/// Nondeterministic Crescendo (nondeterministic Chord when flat): at every
/// level the successor, then for each bucket [2^k, 2^{k+1}) cut at the
/// merge limit one member drawn uniformly from `rng` in clockwise order.
/// Draws happen only for non-empty buckets, leaf level first.
inline std::set<NodeIndex> nondet_crescendo_links(const OverlayNetwork& net,
                                                  NodeIndex m, Rng rng) {
  const IdSpace& space = net.space();
  std::set<NodeIndex> links;
  std::uint64_t limit = kNoLimit;
  for (int level = leaf_level(net, m); level >= 0; --level) {
    const std::vector<NodeIndex> ring = others(net, m, level);
    const std::uint64_t succ_d = successor_distance(net, m, ring);
    for (const NodeIndex v : ring) {
      const std::uint64_t d = space.ring_distance(net.id(m), net.id(v));
      if (d == succ_d && d < limit) links.insert(v);
    }
    for (int k = 0; k < space.bits(); ++k) {
      std::vector<std::pair<std::uint64_t, NodeIndex>> bucket;
      for (const NodeIndex v : ring) {
        const std::uint64_t d = space.ring_distance(net.id(m), net.id(v));
        if (in_bucket(d, k) && below_limit(d, limit)) bucket.emplace_back(d, v);
      }
      if (bucket.empty()) continue;
      std::sort(bucket.begin(), bucket.end());
      links.insert(bucket[rng.uniform(bucket.size())].second);
    }
    limit = succ_d;
  }
  return links;
}

/// Cacophony (Symphony when flat): at every level the successor, then
/// floor(log2 ring size) harmonic draws from `rng`, each resolved by scan
/// to the member managing the drawn point (the farthest member at ring
/// distance <= the draw; m itself at distance 0), kept if closer than the
/// child-ring successor. Every draw is resolved, none skipped; a level
/// where m is alone draws nothing. Leaf level first.
inline std::set<NodeIndex> cacophony_links(const OverlayNetwork& net,
                                           NodeIndex m, Rng rng) {
  const IdSpace& space = net.space();
  std::set<NodeIndex> links;
  std::uint64_t limit = kNoLimit;
  for (int level = leaf_level(net, m); level >= 0; --level) {
    const std::vector<NodeIndex> ring = others(net, m, level);
    const std::uint64_t succ_d = successor_distance(net, m, ring);
    if (!ring.empty()) {
      for (const NodeIndex v : ring) {
        const std::uint64_t d = space.ring_distance(net.id(m), net.id(v));
        if (d == succ_d && d < limit) links.insert(v);
      }
      const std::size_t n = ring.size() + 1;  // m is a member too
      for (int i = 0; i < floor_log2(n); ++i) {
        const double u = rng.uniform_double();
        const double x = std::pow(static_cast<double>(n), u - 1.0);
        const auto dist = static_cast<std::uint64_t>(x * space.size());
        if (dist == 0) continue;
        NodeIndex manager = m;
        std::uint64_t manager_d = 0;
        for (const NodeIndex v : ring) {
          const std::uint64_t d = space.ring_distance(net.id(m), net.id(v));
          if (d <= dist && d > manager_d) {
            manager = v;
            manager_d = d;
          }
        }
        if (manager != m && manager_d < limit) links.insert(manager);
      }
    }
    limit = succ_d;
  }
  return links;
}

/// The XOR-closest member of `members` in m's bucket k at XOR distance
/// below 2^k + radius (radius 2^k: the whole bucket), or
/// kInvalidNodeIndex.
inline NodeIndex xor_closest_in_bucket(const OverlayNetwork& net, NodeIndex m,
                                       const std::vector<NodeIndex>& members,
                                       int k, std::uint64_t radius) {
  NodeIndex best = kInvalidNodeIndex;
  std::uint64_t best_d = 0;
  for (const NodeIndex v : members) {
    const std::uint64_t d = net.space().xor_distance(net.id(m), net.id(v));
    if (!in_bucket(d, k) || d - (std::uint64_t{1} << k) >= radius) continue;
    if (best == kInvalidNodeIndex || d < best_d) {
      best = v;
      best_d = d;
    }
  }
  return best;
}

/// Kandy (Kademlia when flat): at every level and bucket, the XOR-closest
/// member, filtered by the child ring's closest member in the same bucket
/// per `policy`.
inline std::set<NodeIndex> kandy_closest_links(const OverlayNetwork& net,
                                               NodeIndex m,
                                               MergePolicy policy) {
  const IdSpace& space = net.space();
  std::set<NodeIndex> links;
  std::vector<NodeIndex> child;  // empty below the leaf
  for (int level = leaf_level(net, m); level >= 0; --level) {
    const std::vector<NodeIndex> ring = others(net, m, level);
    for (int k = 0; k < space.bits(); ++k) {
      const std::uint64_t lo = std::uint64_t{1} << k;
      std::uint64_t radius = lo;
      const NodeIndex child_best =
          xor_closest_in_bucket(net, m, child, k, radius);
      if (child_best != kInvalidNodeIndex) {
        if (policy == MergePolicy::kFrugal) continue;
        radius = space.xor_distance(net.id(m), net.id(child_best)) - lo;
      }
      const NodeIndex v = xor_closest_in_bucket(net, m, ring, k, radius);
      if (v != kInvalidNodeIndex) links.insert(v);
    }
    child = ring;
  }
  return links;
}

/// Compares every node's row of `table` against `expected(m)`.
inline ::testing::AssertionResult rows_match(
    const OverlayNetwork& net, const LinkTable& table,
    const std::function<std::set<NodeIndex>(NodeIndex)>& expected) {
  for (NodeIndex m = 0; m < net.size(); ++m) {
    const auto row = table.neighbors(m);
    const std::set<NodeIndex> got(row.begin(), row.end());
    const std::set<NodeIndex> want = expected(m);
    if (got != want) {
      return ::testing::AssertionFailure()
             << "node " << m << " (id " << net.id(m) << "): " << got.size()
             << " links, oracle " << want.size();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace canon::oracle

#endif  // CANON_TESTS_LINK_ORACLES_H
