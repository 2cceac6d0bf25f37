// The family registry: one table describing every buildable overlay
// family, replacing the `if (family == ...)` dispatch chains that used to
// be triplicated across canon_doctor, the family benches, and the
// structure auditor.
//
// Each of the 13 families contributes one FamilyEntry:
//
//   build(net, rng)         the family's link-table construction under the
//                           shared experiment conventions (randomized
//                           families draw from `rng`; deterministic ones
//                           ignore it; the proximity families use the
//                           synthetic latency oracle and default
//                           ProximityConfig)
//   make_router(net, links) the family's concrete router(s) wrapped for
//                           QueryEngine batches — plain and failure-aware
//   audit(net, links)       the StructureAuditor battery composition the
//                           construction guarantees
//
// The FamilyRouter returned by make_router type-erases at *batch*
// granularity only: one std::function call runs a whole workload, inside
// which the concrete template cores (RingRouter, XorRouter, GroupRouter,
// Resilient*) route every query with zero virtual dispatch — the hot-path
// contract of overlay/routing.h is untouched.
//
// This header pulls in every family, so it lives in its own library
// (canon_registry, on top of canon_core/canon_dht/canon_audit) even though
// the file sits beside the overlay layer it serves.
#ifndef CANON_OVERLAY_FAMILY_REGISTRY_H
#define CANON_OVERLAY_FAMILY_REGISTRY_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "common/rng.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/query_engine.h"
#include "overlay/stepper.h"

namespace canon::registry {

/// A built family's routers, wrapped for batch execution. Copyable; the
/// closures share ownership of the concrete router plus whatever auxiliary
/// structure it needs (ZoneTree, CanCanNetwork, GroupedOverlay), while
/// `net` and `links` passed to make_router are borrowed and must outlive
/// the FamilyRouter.
struct FamilyRouter {
  using RunFn = std::function<QueryStats(
      const QueryEngine&, std::span<const Query>, std::vector<RouteProbe>*)>;
  using RunResilientFn = std::function<ResilientStats(
      const QueryEngine&, std::span<const Query>, const FaultPlan&,
      std::vector<RouteProbe>*)>;
  using RunResilientWithFn = std::function<ResilientStats(
      const QueryEngine&, std::span<const Query>, const FailureSet&,
      const FaultPlan&, std::vector<RouteProbe>*)>;

  RunFn run_fn;
  RunResilientFn resilient_fn;
  RunResilientWithFn resilient_with_fn;

  /// Plain batch, exactly what engine.run(queries, <concrete router>)
  /// would produce.
  QueryStats run(const QueryEngine& engine, std::span<const Query> queries,
                 std::vector<RouteProbe>* per_query = nullptr) const {
    return run_fn(engine, queries, per_query);
  }

  /// Failure-aware batch through the family's resilient core; with an
  /// empty plan the stats match run() field-for-field.
  ResilientStats run_resilient(const QueryEngine& engine,
                               std::span<const Query> queries,
                               const FaultPlan& plan,
                               std::vector<RouteProbe>* per_query =
                                   nullptr) const {
    return resilient_fn(engine, queries, plan, per_query);
  }

  /// Same over an already-materialized FailureSet — for callers that also
  /// audit or journal the dead set themselves.
  ResilientStats run_resilient_with(const QueryEngine& engine,
                                    std::span<const Query> queries,
                                    const FailureSet& dead,
                                    const FaultPlan& plan,
                                    std::vector<RouteProbe>* per_query =
                                        nullptr) const {
    return resilient_with_fn(engine, queries, dead, plan, per_query);
  }
};

/// One row of the registry. Plain function pointers: entries are a static
/// table, not runtime-registered plugins.
struct FamilyEntry {
  std::string_view name;

  /// Builds the family's link table. Deterministic constructions ignore
  /// `rng`; callers wanting the shared experiment conventions should use
  /// build_family(), which seeds the stream the way every figure does.
  LinkTable (*build)(const OverlayNetwork& net, Rng& rng);

  /// Wraps the family's routers over an already-built table. The CAN
  /// families reconstruct their deterministic zone trees from `net`
  /// internally (Can-Can routes over its own rebuilt tables, which equal
  /// any `links` produced by build()).
  FamilyRouter (*make_router)(const OverlayNetwork& net,
                              const LinkTable& links);

  /// Runs the audit batteries the construction guarantees (battery table
  /// in audit/auditor.h). Every family starts with csr + hierarchy.
  audit::AuditReport (*audit)(const OverlayNetwork& net,
                              const LinkTable& links);

  /// Builds the family's resumable one-hop stepper (overlay/stepper.h)
  /// for the message simulator: candidate 0 reproduces the hop
  /// the family's greedy route() would take; later candidates feed
  /// α-parallel speculation. The CAN families rebuild their deterministic
  /// auxiliary structures from `net` and the returned closure owns them;
  /// `net` and `links` themselves are borrowed and must outlive the
  /// stepper.
  Stepper (*make_stepper)(const OverlayNetwork& net, const LinkTable& links);
};

/// All 13 families, in the canonical order the doctor reports them.
std::span<const FamilyEntry> families();

/// Name list / membership test, e.g. for validating --family flags.
std::span<const std::string_view> family_names();
bool is_family(std::string_view name);

/// "chord, symphony, ..." — for CLI usage and error messages.
std::string family_list();

/// Looks up one entry; throws std::invalid_argument naming every valid
/// family when `name` is unknown.
const FamilyEntry& family(std::string_view name);

/// Builds `name` under the shared experiment conventions used by
/// canon_doctor and tests/parallel_determinism_test.cc: randomized
/// families draw from Rng(seed * 2 + 1).
LinkTable build_family(const OverlayNetwork& net, std::string_view name,
                       std::uint64_t seed);

/// family(name).audit(net, links) — the one-call replacement for the old
/// StructureAuditor::audit(family).
audit::AuditReport audit_family(std::string_view name,
                                const OverlayNetwork& net,
                                const LinkTable& links);

}  // namespace canon::registry

#endif  // CANON_OVERLAY_FAMILY_REGISTRY_H
