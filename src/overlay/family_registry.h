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
//   make_router(net, links) the family's GreedyRouter (overlay/routing.h)
//                           for QueryEngine batches — plain and
//                           failure-aware
//   audit(net, links)       the StructureAuditor battery composition the
//                           construction guarantees
//   make_stepper(net, links) the same router's kernel as the message
//                           simulator's Stepper
//
// The FamilyRouter returned by make_router holds the concrete router in a
// std::variant and dispatches once per *batch*: one std::visit runs a
// whole workload, inside which the concrete hop kernel routes every query
// with zero virtual dispatch — the hot-path contract of overlay/routing.h
// is untouched.
//
// This header pulls in every family, so it lives in its own library
// (canon_registry, on top of canon_core/canon_dht/canon_audit) even though
// the file sits beside the overlay layer it serves.
#ifndef CANON_OVERLAY_FAMILY_REGISTRY_H
#define CANON_OVERLAY_FAMILY_REGISTRY_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "audit/auditor.h"
#include "canon/cancan.h"
#include "canon/proximity.h"
#include "common/rng.h"
#include "dht/can.h"
#include "overlay/fault_plan.h"
#include "overlay/link_table.h"
#include "overlay/overlay_network.h"
#include "overlay/query_engine.h"
#include "overlay/routing.h"
#include "overlay/stepper.h"

namespace canon::registry {

/// A built family's router, for batch execution. Copyable; copies share
/// the concrete router, whose kernel routes over `links` and shares
/// whatever auxiliary structure it ranks over (CanCanZones,
/// GroupedOverlay), while `net` and `links` passed to make_router are
/// borrowed and must outlive the FamilyRouter.
struct FamilyRouter {
  using AnyRouter = std::variant<RingRouter, XorRouter, CanRouter,
                                 CanCanRouter, GroupRouter>;

  std::shared_ptr<const AnyRouter> router;

  /// Plain batch, exactly what engine.run(queries, <concrete router>)
  /// would produce.
  QueryStats run(const QueryEngine& engine, std::span<const Query> queries,
                 std::vector<RouteProbe>* per_query = nullptr) const;

  /// Failure-aware batch through the family's failure-aware walk; with an
  /// empty plan it is run().
  ResilientStats run_resilient(const QueryEngine& engine,
                               std::span<const Query> queries,
                               const FaultPlan& plan,
                               std::vector<RouteProbe>* per_query =
                                   nullptr) const;

  /// Same over an already-materialized FailureSet — for callers that also
  /// audit or journal the dead set themselves.
  ResilientStats run_resilient_with(const QueryEngine& engine,
                                    std::span<const Query> queries,
                                    const FailureSet& dead,
                                    const FaultPlan& plan,
                                    std::vector<RouteProbe>* per_query =
                                        nullptr) const;
};

/// One row of the registry. Plain function pointers: entries are a static
/// table, not runtime-registered plugins.
struct FamilyEntry {
  std::string_view name;

  /// Builds the family's link table. Deterministic constructions ignore
  /// `rng`; callers wanting the shared experiment conventions should use
  /// build_family(), which seeds the stream the way every figure does.
  LinkTable (*build)(const OverlayNetwork& net, Rng& rng);

  /// Wraps the family's routers over an already-built table: every
  /// family routes over `links`. Can-Can and the proximity families also
  /// derive the structure their kernel ranks over (zone slots, grouping)
  /// from `net`; no family rebuilds a table.
  FamilyRouter (*make_router)(const OverlayNetwork& net,
                              const LinkTable& links);

  /// Runs the audit batteries the construction guarantees (battery table
  /// in audit/auditor.h). Every family starts with csr + hierarchy.
  audit::AuditReport (*audit)(const OverlayNetwork& net,
                              const LinkTable& links);

  /// The family router's stepper() (overlay/stepper.h) for the message
  /// simulator: candidate 0 is the hop the family's route() takes; later
  /// candidates feed α-parallel speculation. Any auxiliary structure the
  /// kernel derives from `net` is shared by the returned closure; `net`
  /// and `links` themselves are borrowed and must outlive the stepper.
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
