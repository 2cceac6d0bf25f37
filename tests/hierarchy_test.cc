// Unit tests for the hierarchy substrate: domain paths, the domain tree
// index, and the synthetic hierarchy generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "hierarchy/domain_path.h"
#include "hierarchy/domain_tree.h"
#include "hierarchy/generators.h"

namespace canon {
namespace {

TEST(DomainPath, LcaDepth) {
  const DomainPath a({1, 2, 3});
  const DomainPath b({1, 2, 4});
  const DomainPath c({0, 2, 3});
  const DomainPath flat;
  EXPECT_EQ(a.lca_depth(b), 2);
  EXPECT_EQ(a.lca_depth(c), 0);
  EXPECT_EQ(a.lca_depth(a), 3);
  EXPECT_EQ(a.lca_depth(flat), 0);
  EXPECT_EQ(flat.lca_depth(flat), 0);
}

TEST(DomainPath, InDomainOf) {
  const DomainPath a({1, 2, 3});
  const DomainPath b({1, 2, 4});
  EXPECT_TRUE(a.in_domain_of(b, 0));
  EXPECT_TRUE(a.in_domain_of(b, 2));
  EXPECT_FALSE(a.in_domain_of(b, 3));
  EXPECT_FALSE(a.in_domain_of(b, -1));
  EXPECT_FALSE(a.in_domain_of(b, 4));  // deeper than either path
}

TEST(DomainPath, ToString) {
  EXPECT_EQ(DomainPath({1, 0, 7}).to_string(), "1.0.7");
  EXPECT_EQ(DomainPath{}.to_string(), "");
}

TEST(DomainTree, FlatPopulation) {
  const std::vector<DomainPath> paths(5);
  const std::vector<NodeId> ids = {30, 10, 50, 20, 40};
  const DomainTree tree(paths, ids);
  EXPECT_EQ(tree.domain_count(), 1);
  EXPECT_EQ(tree.max_depth(), 0);
  // Root members are sorted by ID: indices of ids 10,20,30,40,50.
  const auto& members = tree.domain(tree.root()).members;
  ASSERT_EQ(members.size(), 5u);
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_LT(ids[members[i - 1]], ids[members[i]]);
  }
}

TEST(DomainTree, TwoLevelPartition) {
  const std::vector<DomainPath> paths = {DomainPath({0}), DomainPath({1}),
                                         DomainPath({0}), DomainPath({1}),
                                         DomainPath({0})};
  const std::vector<NodeId> ids = {5, 6, 7, 8, 9};
  const DomainTree tree(paths, ids);
  EXPECT_EQ(tree.domain_count(), 3);  // root + two children
  EXPECT_EQ(tree.max_depth(), 1);
  const auto& root = tree.domain(tree.root());
  ASSERT_EQ(root.children.size(), 2u);
  std::size_t total = 0;
  for (const int c : root.children) {
    const auto& d = tree.domain(c);
    EXPECT_EQ(d.parent, tree.root());
    EXPECT_EQ(d.depth, 1);
    total += d.members.size();
    for (std::size_t i = 1; i < d.members.size(); ++i) {
      EXPECT_LT(ids[d.members[i - 1]], ids[d.members[i]]);
    }
  }
  EXPECT_EQ(total, 5u);
}

TEST(DomainTree, DomainChainIsRootToLeaf) {
  const std::vector<DomainPath> paths = {DomainPath({2, 1}), DomainPath({2, 0}),
                                         DomainPath({3, 1})};
  const std::vector<NodeId> ids = {1, 2, 3};
  const DomainTree tree(paths, ids);
  for (std::uint32_t node = 0; node < 3; ++node) {
    const auto& chain = tree.domain_chain(node);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0], tree.root());
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(tree.domain(chain[i]).parent, chain[i - 1]);
      EXPECT_EQ(tree.domain(chain[i]).depth, static_cast<int>(i));
    }
    EXPECT_EQ(tree.node_depth(node), 2);
  }
}

TEST(DomainTree, RaggedDepthsSupported) {
  // One node lives directly under the root; others are two levels deep.
  const std::vector<DomainPath> paths = {DomainPath{}, DomainPath({0, 1}),
                                         DomainPath({0, 2})};
  const std::vector<NodeId> ids = {10, 20, 30};
  const DomainTree tree(paths, ids);
  EXPECT_EQ(tree.node_depth(tree.domain(0).members[0]), 0);
  EXPECT_EQ(tree.max_depth(), 2);
  // Every node appears in the root's member list.
  EXPECT_EQ(tree.domain(tree.root()).members.size(), 3u);
}

TEST(DomainTree, RejectsDuplicateIds) {
  const std::vector<DomainPath> paths(2);
  const std::vector<NodeId> ids = {7, 7};
  EXPECT_THROW(DomainTree(paths, ids), std::invalid_argument);
}

TEST(DomainTree, RejectsSizeMismatch) {
  EXPECT_THROW(DomainTree(std::vector<DomainPath>(2), {1}),
               std::invalid_argument);
}

TEST(DomainTree, DomainOfChecksLevel) {
  const std::vector<DomainPath> paths = {DomainPath({0})};
  const DomainTree tree(paths, {1});
  EXPECT_EQ(tree.domain_of(0, 0), tree.root());
  EXPECT_THROW(tree.domain_of(0, 5), std::out_of_range);
}

TEST(DomainTree, PartitionMatchesPrefixGrouping) {
  // Ragged random paths with branches up to 65535 and unsorted IDs: every
  // distinct path prefix is exactly one domain, holding every node with
  // that prefix in ID order; children take consecutive indices in
  // ascending branch order; each chain names the node's prefixes.
  Rng rng(11);
  for (const std::uint16_t max_branch : {std::uint16_t{3}, std::uint16_t{65535}}) {
    const std::size_t n = 300;
    std::vector<DomainPath> paths;
    std::vector<NodeId> ids;
    std::set<std::vector<std::uint16_t>> prefixes;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint16_t> branches(rng.uniform(4));
      for (auto& b : branches) {
        b = rng.uniform(2) == 0 ? static_cast<std::uint16_t>(rng.uniform(3))
                                : static_cast<std::uint16_t>(
                                      rng.uniform(max_branch + 1u));
      }
      for (std::size_t l = 0; l <= branches.size(); ++l) {
        prefixes.insert({branches.begin(), branches.begin() + l});
      }
      paths.emplace_back(std::move(branches));
      ids.push_back((i * 7919) % 1009);  // unique, not ascending
    }
    const DomainTree tree(paths, ids);
    ASSERT_EQ(tree.domain_count(), static_cast<int>(prefixes.size()));
    std::vector<std::vector<std::uint16_t>> prefix_of(prefixes.size());
    for (int d = 0; d < tree.domain_count(); ++d) {
      const Domain& dom = tree.domain(d);
      if (d != tree.root()) {
        ASSERT_LT(dom.parent, d);
        prefix_of[d] = prefix_of[dom.parent];
        prefix_of[d].push_back(dom.branch);
      }
      for (std::size_t k = 0; k < dom.children.size(); ++k) {
        EXPECT_EQ(dom.children[k], dom.children[0] + static_cast<int>(k));
        if (k > 0) {
          EXPECT_LT(tree.domain(dom.children[k - 1]).branch,
                    tree.domain(dom.children[k]).branch);
        }
      }
      std::vector<NodeIndex> want;
      for (NodeIndex i = 0; i < n; ++i) {
        const auto& b = paths[i].branches();
        if (b.size() >= prefix_of[d].size() &&
            std::equal(prefix_of[d].begin(), prefix_of[d].end(), b.begin())) {
          want.push_back(i);
        }
      }
      std::sort(want.begin(), want.end(),
                [&](NodeIndex a, NodeIndex b) { return ids[a] < ids[b]; });
      EXPECT_EQ(dom.members, want) << "domain " << d;
    }
    for (NodeIndex i = 0; i < n; ++i) {
      const auto chain = tree.domain_chain(i);
      ASSERT_EQ(chain.size(), paths[i].branches().size() + 1);
      for (std::size_t l = 0; l < chain.size(); ++l) {
        EXPECT_EQ(prefix_of[chain[l]],
                  std::vector<std::uint16_t>(paths[i].branches().begin(),
                                             paths[i].branches().begin() +
                                                 static_cast<long>(l)));
      }
    }
  }
}

TEST(Generators, FlatHierarchy) {
  Rng rng(1);
  HierarchySpec spec;
  spec.levels = 1;
  const auto paths = generate_hierarchy(100, spec, rng);
  EXPECT_EQ(paths.size(), 100u);
  for (const auto& p : paths) EXPECT_EQ(p.depth(), 0);
}

TEST(Generators, PathLengthMatchesLevels) {
  Rng rng(2);
  for (int levels = 1; levels <= 5; ++levels) {
    HierarchySpec spec;
    spec.levels = levels;
    spec.fanout = 4;
    const auto paths = generate_hierarchy(50, spec, rng);
    for (const auto& p : paths) {
      EXPECT_EQ(p.depth(), levels - 1);
      for (int l = 0; l < p.depth(); ++l) EXPECT_LT(p.branch(l), 4);
    }
  }
}

TEST(Generators, UniformFillsAllBranches) {
  Rng rng(3);
  HierarchySpec spec;
  spec.levels = 2;
  spec.fanout = 10;
  spec.placement = Placement::kUniform;
  const auto paths = generate_hierarchy(5000, spec, rng);
  std::vector<int> counts(10, 0);
  for (const auto& p : paths) ++counts[p.branch(0)];
  for (const int c : counts) EXPECT_NEAR(c, 500, 150);
}

TEST(Generators, ZipfSkewsBranchSizes) {
  Rng rng(4);
  HierarchySpec spec;
  spec.levels = 2;
  spec.fanout = 10;
  spec.placement = Placement::kZipf;
  spec.zipf_theta = 1.25;
  const auto paths = generate_hierarchy(10000, spec, rng);
  std::vector<int> counts(10, 0);
  for (const auto& p : paths) ++counts[p.branch(0)];
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // The largest branch should dominate: with theta=1.25 the top branch
  // holds ~38% of the mass.
  EXPECT_GT(counts[0], 3 * counts[4]);
  EXPECT_GT(counts[0], 2500);
}

TEST(Generators, DeterministicGivenSeed) {
  HierarchySpec spec;
  spec.levels = 3;
  Rng r1(9);
  Rng r2(9);
  const auto a = generate_hierarchy(200, spec, r1);
  const auto b = generate_hierarchy(200, spec, r2);
  EXPECT_EQ(a, b);
}

TEST(Generators, RejectsBadSpecs) {
  Rng rng(1);
  HierarchySpec bad;
  bad.levels = 0;
  EXPECT_THROW(generate_hierarchy(10, bad, rng), std::invalid_argument);
  bad.levels = 2;
  bad.fanout = 0;
  EXPECT_THROW(generate_hierarchy(10, bad, rng), std::invalid_argument);
}

}  // namespace
}  // namespace canon
