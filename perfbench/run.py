#!/usr/bin/env python3
"""The repository benchmark: builds the workload driver, runs workloads,
checks their outputs and prints every metric by name and unit.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload lookup --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Run it from the repository root. The first run configures and compiles the
library from ../src into .bench_build/perfbench (Release). Each workload runs
in its own process; with --workload given, the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (see metrics.json for units, directions and what each one moves).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
CATALOG = os.path.join(HERE, "metrics.json")

# A run must end within this many seconds (the first one may also build).
RUN_LIMIT_S = 170


def load_catalog():
    with open(CATALOG) as f:
        return json.load(f)


def benchmark_json(catalog):
    """The contract view of the catalog, as written to BENCHMARK.json."""
    keep = ("name", "unit", "better", "bound")
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": catalog["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in catalog["workloads"]],
        "end_to_end": [{k: m[k] for k in keep}
                       for m in catalog["end_to_end"]],
        "per_layer": [{k: m[k] for k in keep if k in m}
                      for m in catalog["per_layer"]],
    }


def parse_args(argv, catalog):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Runs the repository benchmark (see metrics.json).")
    p.add_argument("--workload", choices=[w["name"] for w in
                                          catalog["workloads"]],
                   help="one workload; omit to run all of them")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Worker threads for the library's parallel phases: fixed in the
    # catalog so every commit is measured under the same load.
    p.add_argument("--threads", type=int, default=catalog["threads"])
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="regenerate BENCHMARK.json from metrics.json")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is not None and not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in 1..3600")
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        p.error("--threads must be in 1..%d" % (os.cpu_count() or 1))
    return args


def build(deadline):
    """Configures and compiles the driver; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.time())
                                    ).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
                return False
            if rc != 0:
                print("perfbench: build failed (%s); see %s"
                      % (" ".join(cmd[:2]), log_path), file=sys.stderr)
                return False
    return True


def run_driver(workload, seed, seconds, trace, threads, deadline):
    """Runs one workload in its own process. Returns (exit code, result
    dict or None); the driver's human-readable lines go to stdout."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace,
           "--threads=%d" % threads]
    if trace:
        cmd.append("--spans=" + os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (workload, seed)))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        print("perfbench: %s ran out of time" % workload, file=sys.stderr)
        return 1, None
    finally:
        # Also on SIGTERM (see main): never leave the driver running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            pass
    for line in lines:
        print(line)
    return proc.returncode, result


def select_metrics(catalog, workload, trace, produced):
    """Picks the metrics one run reports, with units from the catalog.
    Returns (metrics, problems)."""
    problems = []
    known = {m["name"]: m for m in catalog["end_to_end"] + catalog["per_layer"]}
    for name in produced:
        if name not in known:
            problems.append("metric %s is not in metrics.json" % name)
    wanted = catalog["per_layer"] if trace else catalog["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        idle = trace and workload not in m.get("moves", {})
        if name in produced:
            value = produced[name]
        elif idle or name.startswith("mem."):
            # The layer did no work in this workload, or the library charged
            # no bytes under that ledger tag: report zero.
            value = 0
        else:
            problems.append("metric %s missing from %s" % (name, workload))
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    if not trace:
        for name, v in metrics.items():
            if not v["value"] > 0:
                problems.append("end-to-end metric %s is %r" % (name,
                                                                v["value"]))
    return metrics, problems


def passed(rc, result, problems):
    return rc == 0 and not problems and result["failed"] == 0 and all(
        c["ok"] for c in result["checks"])


def run_one(catalog, args, seconds, deadline):
    rc, result = run_driver(args.workload, args.seed, seconds, args.trace,
                            args.threads, deadline)
    if result is None:
        print("perfbench: %s printed no result (exit %d)"
              % (args.workload, rc), file=sys.stderr)
        return 1
    metrics, problems = select_metrics(catalog, args.workload, args.trace,
                                       result["metrics"])
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("# workload=%s seed=%d threads=%d trace=%d seconds=%d"
          % (args.workload, args.seed, result["threads"], args.trace, seconds))
    for name, v in metrics.items():
        print("# %-40s %16.6g %s" % (name, v["value"], v["unit"]))
    correct = passed(rc, result, problems)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(catalog, args, seconds):
    """Runs every workload untraced, one process each, and prints a table."""
    rows = []
    correct = True
    attempted = failed = 0
    merged = {}
    for w in catalog["workloads"]:
        name = w["name"]
        rc, result = run_driver(name, args.seed, seconds, 0, args.threads,
                                time.time() + RUN_LIMIT_S)
        if result is None:
            print("perfbench: %s printed no result (exit %d)" % (name, rc),
                  file=sys.stderr)
            return 1
        metrics, problems = select_metrics(catalog, name, 0,
                                           result["metrics"])
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        ok = passed(rc, result, problems)
        correct = correct and ok
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        for metric, v in metrics.items():
            rows.append((name, metric, v["value"], v["unit"]))
            merged["%s.%s" % (name, metric)] = v
        rows.append((name, "checks", "ok" if ok else "FAILED", ""))
    print("\n%-12s %-14s %16s %s" % ("workload", "metric", "value", "unit"))
    for name, metric, value, unit in rows:
        shown = value if isinstance(value, str) else "%.6g" % value
        print("%-12s %-14s %16s %s" % (name, metric, shown, unit))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv):
    start = time.time()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    catalog = load_catalog()
    args = parse_args(argv, catalog)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(catalog), f, indent=2)
            f.write("\n")
        return 0
    seconds = args.seconds or catalog["run_seconds"]
    # The first run in a checkout also compiles, which the run limit does
    # not cover; later runs count the (no-op) build against it.
    compiled = os.path.isfile(BINARY)
    if not build(start + (900 if not compiled else RUN_LIMIT_S)):
        return 1
    if args.workload:
        deadline = (start if compiled else time.time()) + RUN_LIMIT_S
        return run_one(catalog, args, seconds, deadline)
    return run_all(catalog, args, seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
