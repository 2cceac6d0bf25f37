#!/usr/bin/env python3
"""Golden reports: "the same results" as a test.

    golden_reports.py <pinned.json> <fresh.json> name=<binary> ...

Runs every fig/ablation binary, canon_doctor (static, then with crashes
and the load report) and examples/quickstart at CI-sized flags, at seeds
42 and 7 with --threads=1. Each JSON report is stripped with
check_json_schema.py's strip_timing and cut into sections: the envelope
fields (bench, seed, params), each remaining metrics section and each
series row. A section's digest is a SHA-256 of its canonical JSON, with
every double rounded to ROUND_DIGITS significant digits so a last-bit
difference between compilers cannot move it while any real change of a
result does. quickstart contributes one digest of its stdout.

This build's digests are written to <fresh.json>, then compared with
<pinned.json>: every run whose digests differ is reported with the first
differing section. A change that means to move a result re-pins by
copying <fresh.json> over <pinned.json>; the git diff then shows exactly
which entries moved.

`name` is the binary's target name (fig5_hops, canon_doctor,
quickstart, ...); every name in RUNS must be given.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_json_schema import strip_timing  # noqa: E402

SEEDS = (42, 7)
ROUND_DIGITS = 12

# (label, binary name, flags). Sizes keep the whole set near a second per
# seed while every binary still runs each of its code paths.
RUNS = [
    ("fig3_links", "fig3_links", ["--min-nodes=256", "--max-nodes=2048"]),
    ("fig4_degree_pdf", "fig4_degree_pdf", ["--nodes=2048"]),
    ("fig5_hops", "fig5_hops",
     ["--min-nodes=256", "--max-nodes=2048", "--trials=400"]),
    ("fig6_latency_stretch", "fig6_latency_stretch",
     ["--min-nodes=256", "--max-nodes=1024", "--trials=200"]),
    ("fig7_locality", "fig7_locality", ["--nodes=2048", "--trials=300"]),
    ("fig8_overlap", "fig8_overlap", ["--nodes=2048", "--trials=300"]),
    ("fig9_multicast", "fig9_multicast",
     ["--nodes=2048", "--sources=100", "--repeats=2"]),
    ("ablation_lookahead", "ablation_lookahead",
     ["--min-nodes=256", "--max-nodes=2048", "--trials=400"]),
    ("ablation_balance", "ablation_balance",
     ["--min-nodes=256", "--max-nodes=1024"]),
    ("ablation_caching", "ablation_caching",
     ["--nodes=1024", "--queries=2000"]),
    ("ablation_family", "ablation_family", ["--nodes=1024", "--trials=300"]),
    ("ablation_fault_isolation", "ablation_fault_isolation",
     ["--nodes=1024", "--trials=300"]),
    ("ablation_maintenance", "ablation_maintenance", ["--max-nodes=256"]),
    ("ablation_resilience", "ablation_resilience",
     ["--nodes=512", "--trials=300", "--drop-rate=0.05"]),
    ("ablation_prox_sampling", "ablation_prox_sampling",
     ["--nodes=512", "--trials=200"]),
    ("ablation_load", "ablation_load", ["--nodes=1024", "--lookups=3000"]),
    ("ablation_congestion", "ablation_congestion",
     ["--nodes=256", "--lookups=1200"]),
    ("canon_doctor", "canon_doctor", ["--all", "--nodes=256", "--levels=3"]),
    ("canon_doctor_faults", "canon_doctor",
     ["--all", "--nodes=256", "--levels=3", "--crash-rate=0.3",
      "--load-report"]),
]


def rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{ROUND_DIGITS}g}")
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def digest(value):
    text = json.dumps(rounded(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sections(doc):
    """Ordered (name, digest) pairs of one stripped report."""
    out = []
    for key, value in doc.items():
        if key == "metrics":
            for name, section in value.items():
                out.append((f"metrics.{name}", digest(section)))
        elif key == "series" and isinstance(value, list):
            for i, row in enumerate(value):
                out.append((f"series[{i}]", digest(row)))
        else:
            out.append((key, digest(value)))
    return out


def run_all(bins):
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for label, name, flags in RUNS:
                out = os.path.join(tmp, f"{label}_{seed}.json")
                cmd = [bins[name], *flags, f"--seed={seed}", "--threads=1",
                       f"--json={out}"]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                               timeout=120)
                with open(out) as f:
                    doc = strip_timing(json.load(f))
                results[f"{label}@{seed}"] = dict(sections(doc))
    stdout = subprocess.run([bins["quickstart"]], check=True,
                            capture_output=True, timeout=60).stdout
    results["quickstart"] = {
        "stdout": hashlib.sha256(stdout).hexdigest()[:16]}
    return results


def first_difference(want, got):
    for name, value in want.items():
        if got.get(name) != value:
            return name if name in got else f"{name} (missing)"
    for name in got:
        if name not in want:
            return f"{name} (new)"
    return None


def main():
    pinned_path, fresh_path = sys.argv[1:3]
    bins = dict(a.split("=", 1) for a in sys.argv[3:])
    needed = {name for _, name, _ in RUNS} | {"quickstart"}
    missing = sorted(needed - bins.keys())
    if missing:
        sys.exit(f"missing binaries: {', '.join(missing)}")
    results = run_all(bins)
    with open(fresh_path, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    with open(pinned_path) as f:
        pinned = json.load(f)
    failures = []
    for run in sorted(pinned.keys() | results.keys()):
        if run not in results:
            failures.append(f"{run}: pinned but not run")
        elif run not in pinned:
            failures.append(f"{run}: run but not pinned")
        else:
            where = first_difference(pinned[run], results[run])
            if where:
                failures.append(f"{run}: first difference in {where}")
    if failures:
        print("golden reports differ:\n  " + "\n  ".join(failures) +
              f"\nthis build's digests: {fresh_path}")
        sys.exit(1)
    print(f"ok: {len(results)} runs match")


if __name__ == "__main__":
    main()
