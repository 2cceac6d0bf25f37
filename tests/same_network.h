// Field-by-field equality of two overlay networks, shared by the tests of
// the derivation constructors (overlay_test) and of dynamic maintenance
// (maintenance_test): a derived network must equal one constructed from
// the same member list.
#ifndef CANON_TESTS_SAME_NETWORK_H
#define CANON_TESTS_SAME_NETWORK_H

#include <gtest/gtest.h>

#include <algorithm>

#include "overlay/overlay_network.h"

namespace canon {

/// Succeeds if `got` equals `want` in every field: the ID space, IDs,
/// paths, attachments, every domain and every node's chain.
inline ::testing::AssertionResult same_network(const OverlayNetwork& got,
                                               const OverlayNetwork& want) {
  if (!(got.space() == want.space()) || got.ids() != want.ids()) {
    return ::testing::AssertionFailure() << "IDs differ";
  }
  for (NodeIndex i = 0; i < want.size(); ++i) {
    if (!(got.path(i) == want.path(i)) || got.attach(i) != want.attach(i)) {
      return ::testing::AssertionFailure() << "node " << i << " differs";
    }
  }
  const DomainTree& a = got.domains();
  const DomainTree& b = want.domains();
  if (a.node_count() != b.node_count() ||
      a.domain_count() != b.domain_count() || a.max_depth() != b.max_depth()) {
    return ::testing::AssertionFailure()
           << a.domain_count() << " domains of depth " << a.max_depth()
           << ", want " << b.domain_count() << " of depth " << b.max_depth();
  }
  for (int d = 0; d < b.domain_count(); ++d) {
    const Domain& x = a.domain(d);
    const Domain& y = b.domain(d);
    if (x.parent != y.parent || x.depth != y.depth || x.branch != y.branch ||
        x.children != y.children || x.members != y.members) {
      return ::testing::AssertionFailure() << "domain " << d << " differs";
    }
  }
  for (NodeIndex i = 0; i < want.size(); ++i) {
    const auto x = a.domain_chain(i);
    const auto y = b.domain_chain(i);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return ::testing::AssertionFailure() << "chain of node " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace canon

#endif  // CANON_TESTS_SAME_NETWORK_H
