#!/usr/bin/env python3
"""End-to-end check for the machine-readable output schemas.

Modes:

  check_json_schema.py <bench_binary>
    Runs a bench binary with small parameters and --json, then asserts the
    stable top-level schema {bench, seed, params, metrics, series} and —
    for fig5_hops — that every series row's per-hierarchy-level hop
    breakdown sums to its total hop count (the paper's convergence
    accounting).

  check_json_schema.py --threads-invariant <bench_binary> [args...]
    Runs the binary at --threads=1 and --threads=8 with the given args and
    asserts the two --json reports are identical after stripping the
    wall-clock-dependent fields (params.threads, metrics.gauges,
    metrics.histograms): the batch QueryEngine / parallel construction
    determinism contract (docs/PERFORMANCE.md). An optional
    --widths=W1,W2,... arg widens the matrix to {threads} x {widths},
    running each combination with --batch-width=W and asserting every
    stripped report byte-identical — the memory-level-parallel routing
    contract (the interleaved kernels change when memory is touched,
    never which neighbor wins).

  check_json_schema.py --doctor <canon_doctor_binary>
    Runs canon_doctor in static (--all) and churn (--journal-out) modes
    and asserts (a) the doctor's --json report carries a schema-valid
    audit object per family, (b) the churn journal is schema-valid JSONL
    with contiguous sequence numbers and a clean final audit_snapshot,
    and (c) replaying the journal reproduces the healthy verdict. Also
    runs one family with --crash-rate and asserts the resilience object
    and the crash events journaled by the fault plan.

  check_json_schema.py --resilient <ablation_resilience_binary>
    Runs the resilience ablation with small parameters and asserts the
    per-row schema: success rates in [0, 1], zero-fault rows lossless and
    retry-free (the empty-plan identity), and success monotone
    non-increasing in the kill fraction within each (family, leaf_set)
    series (fail_fraction's kill sets are nested).

  check_json_schema.py --load <ablation_load_binary>
    Runs the load-observatory ablation with small parameters and asserts
    the LoadAccountant schema on every per-levels row (accounting
    invariants, Gini and shares in range, sorted hotspot lists, and the
    §5 confinement ratio exactly 1.0 for every hierarchical row) plus the
    crash_curve row's time series (windows ordered, failures only after
    the crash point, live-node count dropping by the crash count).

  check_json_schema.py --congestion <ablation_congestion_binary>
    Runs the congestion ablation (message-granularity simulation) and
    asserts the per-row schema plus the paper-level shape of the sweep:
    uniform rows stay flat across offered load, Zipf flash-crowd rows
    show the knee (zero timeouts below saturation, a large super-linear
    jump past it, p99 rising with it), hierarchical rows keep the §5
    confinement ratio >= 0.95 under the flash crowd while flat rows stay
    < 0.2, and the collapse rows carry the congestion time series.

  check_json_schema.py --scale <bench_scale_binary>
    Runs the mega-scale bench with small parameters and asserts the
    per-row schema (name, build wall clock, peak + current RSS, link
    count, lookup throughput, mean hops), that the build.peak_rss_mb
    gauge is recorded, that the physical row ran on the 5160-router
    topology with its latency oracle in the ledger
    (topology.latency_matrix), and that every row routed its full
    lookup batch without failures. Each row reports both peak_rss_mb
    (process high-water) and current_rss_mb (point-in-time), so rows
    are self-describing in any read order.

  check_json_schema.py --resources <bench_scale_binary>
    Runs the mega-scale bench and validates the resource observatory:
    the metrics.memory ledgers (per-tag current <= peak, charges >= 1,
    tag currents summing to the attributed total, the expected subsystem
    tag set per row), the measured-RSS phase samples, the RSS timeline
    (windows ordered, rss_mb populated), and the mem/<row>/<tag> series
    rows agreeing byte-for-byte with the ledgers (these rows are what
    CI's compare_bench --metric=peak_bytes gates).
"""
import json
import os
import subprocess
import sys
import tempfile

JOURNAL_TYPES = {"join", "leave", "repair", "lookup_failure",
                 "audit_snapshot", "crash", "revive", "load_snapshot"}
JOURNAL_REQUIRED = {
    "join": {"id", "path", "lookup_hops", "size"},
    "leave": {"id", "size"},
    "repair": {"cause", "pivot", "nodes_updated"},
    "lookup_failure": {"from", "key", "hops"},
    "audit_snapshot": {"size", "checks", "violations"},
    "crash": {"node", "id", "at"},
    "revive": {"node", "id", "at"},
    "load_snapshot": {"t_ms", "nodes"},
}


def check_report_envelope(doc):
    for key in ("bench", "seed", "params", "metrics", "series"):
        assert key in doc, f"missing top-level key {key!r}"
    assert isinstance(doc["params"], dict)
    assert isinstance(doc["series"], list) and doc["series"], "empty series"
    for section in ("counters", "gauges", "histograms"):
        assert section in doc["metrics"], f"missing metrics.{section}"


def check_audit_object(audit):
    for key in ("ok", "checks", "violation_count", "violations"):
        assert key in audit, f"audit object missing {key!r}"
    assert isinstance(audit["checks"], dict) and audit["checks"]
    assert audit["violation_count"] == len(audit["violations"])
    for v in audit["violations"]:
        for key in ("check", "node", "level", "detail"):
            assert key in v, f"violation missing {key!r}"


def check_journal(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    assert lines, "empty journal"
    last_snapshot = None
    for i, line in enumerate(lines):
        ev = json.loads(line)
        assert ev["seq"] == i, f"line {i + 1}: seq {ev['seq']} != {i}"
        assert ev["type"] in JOURNAL_TYPES, f"unknown type {ev['type']!r}"
        missing = JOURNAL_REQUIRED[ev["type"]] - set(ev)
        assert not missing, f"{ev['type']} event missing {missing}"
        if ev["type"] == "audit_snapshot":
            last_snapshot = ev
    assert last_snapshot is not None, "journal has no audit_snapshot"
    assert last_snapshot["violations"] == 0, (
        f"final snapshot reports {last_snapshot['violations']} violations")


def check_bench(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [binary, "--min-nodes=256", "--max-nodes=512", "--trials=200",
             f"--json={out}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)

    check_report_envelope(doc)
    if doc["bench"] == "fig5_hops":
        for row in doc["series"]:
            total = row["total_hops"]
            by_level = row["hops_by_level"]
            assert sum(by_level) == total, (
                f"hops_by_level {by_level} does not sum to {total} "
                f"(nodes={row['nodes']}, levels={row['levels']})")
            assert len(by_level) <= row["levels"] + 1
        counters = doc["metrics"]["counters"]
        # Lookups flow through the batch QueryEngine, which flushes its
        # per-shard tallies to the query_engine.* counters post-merge.
        assert counters["query_engine.queries"] > 0
        assert counters["query_engine.failures"] == 0
        assert counters["query_engine.hops"] == sum(
            r["total_hops"] for r in doc["series"])


def check_doctor(binary):
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "doctor.json")
        subprocess.run(
            [binary, "--all", "--nodes=256", "--levels=3",
             f"--json={report}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(report) as f:
            doc = json.load(f)
        check_report_envelope(doc)
        assert doc["bench"] == "canon_doctor"
        families = set()
        for row in doc["series"]:
            assert "family" in row and "audit" in row
            check_audit_object(row["audit"])
            assert row["audit"]["ok"] is True, (
                f"family {row['family']} audited unhealthy")
            families.add(row["family"])
        assert len(families) == 13, f"expected 13 families, got {families}"
        counters = doc["metrics"]["counters"]
        assert counters["audit.checks"] > 0
        assert counters.get("audit.violations", 0) == 0

        journal = os.path.join(tmp, "churn.jsonl")
        subprocess.run(
            [binary, "--nodes=128", "--churn=60", "--snapshot-every=20",
             f"--journal-out={journal}"],
            check=True, stdout=subprocess.DEVNULL)
        check_journal(journal)
        subprocess.run([binary, f"--replay={journal}"],
                       check=True, stdout=subprocess.DEVNULL)

        # Fault phase: --crash-rate adds a resilience object per family row
        # and journals every injected crash.
        fault_report = os.path.join(tmp, "faults.json")
        fault_journal = os.path.join(tmp, "faults.jsonl")
        subprocess.run(
            [binary, "--family=crescendo", "--nodes=256", "--levels=3",
             "--crash-rate=0.3", "--trials=300",
             f"--json={fault_report}", f"--journal-out={fault_journal}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(fault_report) as f:
            doc = json.load(f)
        res = doc["series"][0]["resilience"]
        for key in ("crash_rate", "crashed", "attempted", "ok",
                    "success_rate", "availability", "retries",
                    "fallback_hops", "skipped_dead_source"):
            assert key in res, f"resilience object missing {key!r}"
        assert 0.0 <= res["success_rate"] <= 1.0
        with open(fault_journal) as f:
            events = [json.loads(ln) for ln in f.read().splitlines() if ln]
        assert events, "fault journal is empty"
        crashes = 0
        for i, ev in enumerate(events):
            assert ev["seq"] == i, f"fault journal seq {ev['seq']} != {i}"
            assert ev["type"] in JOURNAL_TYPES
            missing = JOURNAL_REQUIRED[ev["type"]] - set(ev)
            assert not missing, f"{ev['type']} event missing {missing}"
            crashes += ev["type"] == "crash"
        assert crashes == res["crashed"], (
            f"journal has {crashes} crash events, "
            f"report says {res['crashed']}")

        # Observatory phase: --load-report adds a schema-valid load
        # section per family row; --trace-out writes a Chrome trace-event
        # JSON with construction-phase spans and sampled lookup hops.
        obs_report = os.path.join(tmp, "observatory.json")
        trace = os.path.join(tmp, "trace.json")
        subprocess.run(
            [binary, "--family=crescendo", "--nodes=256", "--levels=3",
             "--trials=400", "--load-report", f"--trace-out={trace}",
             f"--json={obs_report}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(obs_report) as f:
            doc = json.load(f)
        row = doc["series"][0]
        assert "load" in row, "doctor row missing load section"
        check_load_section(row["load"], 3)
        assert row["load"]["queries"] == 400, row["load"]["queries"]
        with open(trace) as f:
            tdoc = json.load(f)
        assert tdoc["displayTimeUnit"] == "ms"
        spans = [e for e in tdoc["traceEvents"] if e.get("ph") == "X"]
        assert spans, "trace has no complete events"
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0, e
        assert any(e["name"].startswith("build.") for e in spans), (
            "no construction-phase spans in trace")
        assert any(e["name"].startswith("hop ") for e in spans), (
            "no lookup hop spans in trace")
        assert any(e.get("ph") == "M" for e in tdoc["traceEvents"]), (
            "no metadata (process/thread name) events in trace")


def check_resilient(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [binary, "--nodes=1024", "--trials=500", f"--json={out}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    check_report_envelope(doc)
    assert doc["bench"] == "ablation_resilience"
    series = {}  # (family, leaf_set or None) -> [(fail_pct, success)]
    for row in doc["series"]:
        for key in ("family", "fail_pct", "attempted", "ok", "success",
                    "availability", "retries", "fallback_hops"):
            assert key in row, f"series row missing {key!r}"
        assert 0.0 <= row["success"] <= 1.0, row
        assert 0.0 <= row["availability"] <= 1.0, row
        if row["fail_pct"] == 0:
            # Empty-plan identity: nothing dead, nothing dropped, so the
            # resilient engine must be lossless and retry-free.
            assert row["success"] == 1.0, row
            assert row["retries"] == 0, row
            assert row["fallback_hops"] == 0, row
            assert row["skipped_dead_source"] == 0, row
        series.setdefault((row["family"], row.get("leaf_set")),
                          []).append((row["fail_pct"], row["success"]))
    assert len(series) == 13 + 4, "expected 13 family + 4 leaf-set series"
    for (family, leaf), points in series.items():
        points.sort()
        for (_, prev), (_, cur) in zip(points, points[1:]):
            # Small slack: deeper kill sets also shrink the attempted pool
            # and reassign live responsibility, so single lookups can flip.
            assert cur <= prev + 0.02, (
                f"success not monotone for {family} (leaf_set={leaf}): "
                f"{points}")


def check_load_section(load, levels):
    for key in ("queries", "ok", "total_hops", "domain_level", "load",
                "top_nodes", "top_keys", "hops_by_level", "domains",
                "confinement"):
        assert key in load, f"load section missing {key!r}"
    spread = load["load"]
    assert 0.0 <= spread["gini"] <= 1.0, spread
    assert spread["max"] >= spread["mean"] >= 0.0, spread
    assert sum(load["hops_by_level"]) == load["total_hops"], (
        f"hops_by_level {load['hops_by_level']} does not sum to "
        f"{load['total_hops']}")
    totals = [n["total"] for n in load["top_nodes"]]
    assert totals == sorted(totals, reverse=True), "top_nodes not sorted"
    for n in load["top_nodes"]:
        # A single-node lookup is one message wearing two hats (source and
        # terminal), so the role sum can exceed the message total — but
        # never by more than one hat per message, and no single role can
        # outnumber the messages.
        roles = n["as_source"] + n["as_relay"] + n["as_terminal"]
        assert n["total"] <= roles <= 2 * n["total"], n
        assert max(n["as_source"], n["as_relay"],
                   n["as_terminal"]) <= n["total"], n
    lookups = [k["lookups"] for k in load["top_keys"]]
    assert lookups == sorted(lookups, reverse=True), "top_keys not sorted"
    share_sum = 0.0
    for d in load["domains"]:
        assert 0.0 <= d["share"] <= 1.0, d
        share_sum += d["share"]
    assert share_sum <= 1.0 + 1e-9, f"domain shares sum to {share_sum}"
    conf = load["confinement"]
    assert 0.0 <= conf["ratio"] <= 1.0, conf
    assert conf["confined"] <= conf["intra_queries"], conf
    if levels >= 2:
        # The §5 claim as a measured number: an intra-domain Crescendo
        # lookup never leaves its domain.
        assert conf["ratio"] == 1.0, (
            f"levels={levels}: confinement {conf['ratio']} != 1.0")
        assert load["domains"], "hierarchical row has no domain shares"


def check_load(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [binary, "--nodes=1024", "--lookups=3000", f"--json={out}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    check_report_envelope(doc)
    assert doc["bench"] == "ablation_load"
    level_rows = [r for r in doc["series"] if "load" in r]
    assert len(level_rows) == 5, f"expected 5 per-levels rows"
    for row in level_rows:
        check_load_section(row["load"], row["levels"])
        assert row["load"]["queries"] == 3000, row["load"]["queries"]

    crash = [r for r in doc["series"] if r.get("phase") == "crash_curve"]
    assert len(crash) == 1, "expected one crash_curve row"
    crash = crash[0]
    rows = crash["timeseries"]
    assert rows, "crash_curve row has an empty time series"
    times = [r["t_ms"] for r in rows]
    assert times == sorted(times), "time series windows out of order"
    window = times[1] - times[0] if len(times) > 1 else times[0] or 1.0
    crash_at = crash["crash_at_ms"]
    failures = 0.0
    for r in rows:
        for key in ("t_ms", "issued_per_s", "lookups_per_s",
                    "failures_per_s", "messages_per_s", "live_nodes"):
            assert key in r, f"time-series row missing {key!r}"
        failures += r["failures_per_s"] * window / 1000.0
        if r["failures_per_s"] > 0:
            # Failures are completions at a dead node, so they can only
            # land in windows that end after the crash instant.
            assert r["t_ms"] + window > crash_at, (
                f"failures at t={r['t_ms']} before crash at {crash_at}")
    assert round(failures) == crash["failed"], (
        f"time series counts {failures} failures, row says "
        f"{crash['failed']}")
    live = [r["live_nodes"] for r in rows if r["live_nodes"] >= 0]
    assert live and live[0] == 1024 and live[-1] == 1024 - crash["crashed"], (
        f"live-node curve {live[:3]}...{live[-3:]} does not drop by "
        f"{crash['crashed']}")


CONGESTION_ROW_FIELDS = ("name", "family", "workload", "alpha", "load",
                         "gap_ms", "p50_ms", "p99_ms", "p999_ms",
                         "mean_hops", "sent", "serviced", "timeouts",
                         "retries", "link_drops", "inbox_drops", "failures",
                         "max_queue_depth", "confinement", "load_stats")


def check_congestion(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run([binary, f"--json={out}"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    check_report_envelope(doc)
    assert doc["bench"] == "ablation_congestion"
    rows = doc["series"]
    # 2 families x {uniform, zipf} x alpha {1,2,4} x 4 load points.
    assert len(rows) == 48, f"expected 48 rows, got {len(rows)}"
    assert len({r["name"] for r in rows}) == len(rows), "duplicate row names"
    sweeps = {}  # (family, workload, alpha) -> [(load, row)]
    for row in rows:
        for key in CONGESTION_ROW_FIELDS:
            assert key in row, f"congestion row missing {key!r}"
        assert 0 < row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"], row
        assert row["mean_hops"] > 1.0, row
        # Every serviced request is either a wire probe or a lookup's
        # local injection at its source (no wire message).
        assert row["serviced"] <= row["sent"] + row["load_stats"]["queries"], row
        assert row["retries"] <= row["timeouts"], row
        # retry_budget resends keep lookups alive through the collapse.
        assert row["failures"] <= 0.01 * row["load_stats"]["queries"], row
        # The ledger rides along on every row (same invariants as the
        # load observatory; the ratio==1.0 check is replaced by the
        # explicit confinement split below).
        check_load_section(row["load_stats"], 1)
        sweeps.setdefault((row["family"], row["workload"], row["alpha"]),
                          []).append((row["load"], row))
    families = {f for f, _, _ in sweeps}
    assert families == {"chord", "crescendo"}, families
    for (family, workload, alpha), points in sweeps.items():
        points.sort(key=lambda p: p[0])
        lo, hi = points[0][1], points[-1][1]
        label = f"{family}/{workload}/a{alpha}"
        if workload == "uniform":
            # No hot key, load far below per-node capacity: every offered
            # load point stays uncongested and flat.
            assert hi["p99_ms"] < 1.5 * lo["p99_ms"], (
                f"{label}: uniform p99 not flat: "
                f"{[p[1]['p99_ms'] for p in points]}")
            assert hi["timeouts"] <= 16, (
                f"{label}: uniform row congested: {hi['timeouts']} timeouts")
        else:
            # The knee: nothing times out below saturation, then the hot
            # key's owner saturates and timeouts jump super-linearly.
            below, knee = points[0][1], points[2][1]
            assert below["timeouts"] == 0, (
                f"{label}: timeouts below saturation: {below['timeouts']}")
            assert points[1][1]["timeouts"] <= 5, label
            assert knee["timeouts"] >= 50, (
                f"{label}: no knee: "
                f"{[p[1]['timeouts'] for p in points]}")
            assert hi["timeouts"] >= knee["timeouts"], label
            assert hi["p99_ms"] > 1.2 * lo["p99_ms"], (
                f"{label}: p99 did not rise past the knee: "
                f"{lo['p99_ms']} -> {hi['p99_ms']}")
        # The §5 split under concurrent traffic: hierarchical lookups stay
        # inside their transit domain even while congested; flat ones
        # never do.
        for _, row in points:
            ratio = row["confinement"]
            if family == "crescendo":
                assert ratio >= 0.95, f"{label}: confinement {ratio} < 0.95"
            else:
                assert ratio < 0.2, f"{label}: confinement {ratio} >= 0.2"
    # The collapse rows (zipf, alpha=2, deepest load) carry the congestion
    # curve: ordered windows with message and completion rates.
    curves = [r for r in rows if "timeseries" in r]
    assert {r["family"] for r in curves} == {"chord", "crescendo"}, (
        f"expected one congestion curve per family, got "
        f"{[r['name'] for r in curves]}")
    for r in curves:
        assert r["workload"] == "zipf" and r["alpha"] == 2, r["name"]
        windows = r["timeseries"]
        assert windows, f"{r['name']}: empty time series"
        times = [w["t_ms"] for w in windows]
        assert times == sorted(times), f"{r['name']}: windows out of order"
        assert any(w["messages_per_s"] > 0 for w in windows), r["name"]
        assert any(w["lookups_per_s"] > 0 for w in windows), r["name"]


def check_scale(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [binary, "--min-nodes=4096", "--max-nodes=16384",
             "--lookups=2000", "--physical-nodes=8192", f"--json={out}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    check_report_envelope(doc)
    assert doc["bench"] == "bench_scale"
    assert doc["metrics"]["gauges"].get("build.peak_rss_mb", 0) > 0, (
        "build.peak_rss_mb gauge missing")
    rows = [r for r in doc["series"] if not r["name"].startswith("mem/")]
    names = [r["name"] for r in rows]
    assert names[:2] == ["crescendo/4096", "crescendo/16384"], names
    assert len(rows) == 3 and names[2].startswith("physical/"), names
    for row in rows:
        for key in ("name", "nodes", "real_time", "build_s", "pop_s",
                    "peak_rss_mb", "current_rss_mb", "links", "lookups",
                    "lookups_per_sec", "mean_hops", "scalar_lookups_per_sec",
                    "batch_speedup"):
            assert key in row, f"scale row missing {key!r}"
        assert row["real_time"] > 0 and row["build_s"] > 0, row
        # Batch-probe column: both throughput flavors positive (the bench
        # itself asserts batch stats == scalar stats before reporting).
        assert row["scalar_lookups_per_sec"] > 0, row
        assert row["batch_speedup"] > 0, row
        assert row["links"] > row["nodes"], (
            f"{row['nodes']} nodes carry only {row['links']} links")
        assert row["lookups_per_sec"] > 0, row
        assert row["mean_hops"] > 1.0, row
        # Both RSS flavors per row: the high-water mark and the
        # point-in-time figure (rows are self-describing in any order).
        assert row["peak_rss_mb"] >= row["current_rss_mb"] * 0.5 > 0, row
    for row in rows[:2]:
        assert row["name"] == f"crescendo/{row['nodes']}", row["name"]
    physical = rows[2]
    assert physical["routers"] == 5160, physical
    assert "topology.latency_matrix" in (
        doc["metrics"]["memory"][physical["name"]]["tags"]), (
        f"{physical['name']}: latency oracle missing from the ledger")
    assert physical["latency_build_s"] >= 0, physical
    counters = doc["metrics"]["counters"]
    # Each of the 3 rows runs its 2000-lookup workload twice: once through
    # the scalar probe loop, once through the batch kernel.
    assert counters["query_engine.queries"] == 2 * 3 * 2000
    assert counters["query_engine.failures"] == 0


# Subsystem tags every bench_scale row's ledger must carry (the physical
# row adds its latency oracle, "topology.latency_matrix", on top).
EXPECTED_SCALE_TAGS = {"overlay.soa", "hierarchy.path_pool",
                       "hierarchy.domain_tree", "link_table.csr",
                       "overlay.stream_chunks"}


def check_memory_ledger(mem, context):
    """Asserts MemoryAccountant.to_json() invariants for one row."""
    for key in ("attributed", "tags"):
        assert key in mem, f"{context}: ledger missing {key!r}"
    att = mem["attributed"]
    assert 0 <= att["current_bytes"] <= att["peak_bytes"], (context, att)
    total_current = 0
    for tag, st in mem["tags"].items():
        assert 0 <= st["current_bytes"] <= st["peak_bytes"], (context, tag)
        assert st["charges"] >= 1, (context, tag)
        total_current += st["current_bytes"]
    assert total_current == att["current_bytes"], (
        f"{context}: tag currents sum to {total_current}, "
        f"attributed says {att['current_bytes']}")
    assert att["peak_bytes"] >= max(
        st["peak_bytes"] for st in mem["tags"].values()), context


def check_resources(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        subprocess.run(
            [binary, "--min-nodes=4096", "--max-nodes=4096",
             "--lookups=1000", "--physical-nodes=8192", f"--json={out}"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            doc = json.load(f)
    check_report_envelope(doc)
    memory = doc["metrics"]["memory"]
    row_names = [r["name"] for r in doc["series"]
                 if not r["name"].startswith("mem/")]
    assert set(memory) == set(row_names) | {"rss_timeline"}, (
        f"memory section keys {set(memory)} != rows {row_names}")
    mem_rows = {r["name"]: r for r in doc["series"]
                if r["name"].startswith("mem/")}
    for name in row_names:
        ledger = memory[name]
        check_memory_ledger(ledger, name)
        expected = set(EXPECTED_SCALE_TAGS)
        if name.startswith("physical/"):
            expected.add("topology.latency_matrix")
        assert expected <= set(ledger["tags"]), (
            f"{name}: tags {set(ledger['tags'])} missing "
            f"{expected - set(ledger['tags'])}")
        measured = ledger["measured"]
        for key in ("start_mb", "after_pop_mb", "after_build_mb",
                    "after_queries_mb", "peak_mb"):
            assert measured.get(key, 0) > 0, f"{name}: measured.{key}"
        assert measured["peak_mb"] >= measured["start_mb"], measured
        # Every ledger tag rides as a mem/<row>/<tag> series row with the
        # same bytes — the rows CI's compare_bench --metric=peak_bytes
        # gates against BENCH_scale.json.
        for tag, st in ledger["tags"].items():
            row = mem_rows.get(f"mem/{name}/{tag}")
            assert row is not None, f"missing series row mem/{name}/{tag}"
            assert row["peak_bytes"] == st["peak_bytes"], (name, tag)
            assert row["current_bytes"] == st["current_bytes"], (name, tag)
    timeline = memory["rss_timeline"]
    assert timeline, "empty RSS timeline"
    times = [w["t_ms"] for w in timeline]
    assert times == sorted(times), "RSS timeline windows out of order"
    assert all(w.get("rss_mb", 0) > 0 for w in timeline), (
        "RSS timeline window without an rss_mb sample")


SCALE_WALL_CLOCK_FIELDS = ("real_time", "build_s", "pop_s", "peak_rss_mb",
                           "current_rss_mb", "latency_build_s",
                           "lookups_per_sec", "scalar_lookups_per_sec",
                           "batch_speedup")


def strip_timing(doc):
    """Removes the only report fields allowed to vary with --threads (or
    with the batch-engine knobs --batch-width / --grain)."""
    doc["params"].pop("threads", None)
    doc["params"].pop("grain", None)
    doc["params"].pop("batch_width", None)
    doc["metrics"].pop("gauges", None)
    doc["metrics"].pop("histograms", None)
    if doc.get("bench") == "bench_scale":
        # The scale bench reports wall clocks and RSS per series row; the
        # determinism contract covers the structural fields that remain
        # (nodes, links, lookups, mean_hops, and every attributed byte
        # figure — the ledger is a pure function of the charge sequence).
        for row in doc["series"]:
            for field in SCALE_WALL_CLOCK_FIELDS:
                row.pop(field, None)
        memory = doc["metrics"].get("memory")
        if memory:
            # Measured RSS and the wall-clock-bucketed timeline move with
            # the machine; the attributed ledgers must not.
            memory.pop("rss_timeline", None)
            for entry in memory.values():
                entry.pop("measured", None)
    return doc


def check_threads_invariant(binary, extra_args):
    # --widths=1,8,16 widens the matrix: every (threads, batch width)
    # combination must produce the same stripped report.
    widths = [None]
    args = []
    for a in extra_args:
        if a.startswith("--widths="):
            widths = [int(w) for w in a.split("=", 1)[1].split(",")]
        else:
            args.append(a)
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 8):
            for width in widths:
                label = f"t{threads}" if width is None else (
                    f"t{threads}_w{width}")
                out = os.path.join(tmp, f"{label}.json")
                cmd = [binary, *args, f"--threads={threads}"]
                if width is not None:
                    cmd.append(f"--batch-width={width}")
                subprocess.run(cmd + [f"--json={out}"],
                               check=True, stdout=subprocess.DEVNULL)
                with open(out) as f:
                    docs.append((label, strip_timing(json.load(f))))
    base_label, base = docs[0]
    for label, doc in docs[1:]:
        assert doc == base, (
            f"report differs between {base_label} and {label}")


def main():
    if sys.argv[1] == "--doctor":
        check_doctor(sys.argv[2])
    elif sys.argv[1] == "--resilient":
        check_resilient(sys.argv[2])
    elif sys.argv[1] == "--threads-invariant":
        check_threads_invariant(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "--load":
        check_load(sys.argv[2])
    elif sys.argv[1] == "--congestion":
        check_congestion(sys.argv[2])
    elif sys.argv[1] == "--scale":
        check_scale(sys.argv[2])
    elif sys.argv[1] == "--resources":
        check_resources(sys.argv[2])
    else:
        check_bench(sys.argv[1])
    print("ok")


if __name__ == "__main__":
    main()
