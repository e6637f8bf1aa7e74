#!/usr/bin/env python3
"""nanosim perfbench: build the benchmark from source and run a workload.

    python3 perfbench/run.py --workload chain_tran --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --repeat 10 --workload mesh_mc --seed 1 --seconds 10

Run from the root of a source checkout.  The first call configures and
builds perfbench/CMakeLists.txt (Release) into .bench_build/perfbench,
or into $CARGO_TARGET_DIR/perfbench when that is set; later calls only
rebuild what changed.  A single run prints a human-readable report and,
as its last line, one JSON object with "correct", "attempted", "failed"
and "metrics" (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1; a traced run also writes a Perfetto trace into the build
directory).  --repeat K runs K seeds (seed, seed+1, ...) and prints the
median, quartiles and spread of every metric.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["chain_tran", "mesh_mc", "service_mix"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the benchmark binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sim_session.hpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    binary = os.path.join(out, "nanosim_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return binary


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=20).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True,
                               text=True, timeout=20).stdout.strip()
        return (rev or "none") + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over the simulator and benchmark sources (a checkout need
    not be a git repository, so this is the revision that always exists)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, provenance, echo=True):
    """Run one workload; returns (exit code, parsed last line or None)."""
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--ref-dir", os.path.join(BENCH_DIR, "ref"),
           "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
           "--trace-out", os.path.join(
               out, "trace-%s-seed%d.json" % (workload, seed)),
           "--git-rev", provenance[0], "--src-digest", provenance[1]]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def repeat(binary, workloads, seed, seconds, trace, runs, provenance):
    """Repeatability mode: the spread the benchmark's bounds are set from."""
    worst = 0
    for workload in workloads:
        values = {}
        units = {}
        all_correct = True
        for i in range(runs):
            rc, result = run_once(binary, workload, seed + i, seconds, trace,
                                  provenance, echo=False)
            if rc != 0 or result is None:
                print("%s seed %d: exit %d" % (workload, seed + i, rc))
                worst = max(worst, rc or 1)
                all_correct = False
                continue
            all_correct = all_correct and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s: %d runs, seeds %d..%d, %s s each, trace %d, all correct: %s"
              % (workload, runs, seed, seed + runs - 1, seconds, trace,
                 all_correct))
        print("%-28s %-8s %12s %12s %12s %8s  %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "values"))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print("%-28s %-8s %12.6g %12.6g %12.6g %8.4f  %s" % (
                name, units[name], med, q1, q3, spread,
                " ".join("%.4g" % v for v in vals)))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds and print the spread")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    provenance = (git_revision(), source_digest())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat > 0:
        sys.exit(repeat(binary, workloads, args.seed, args.seconds,
                        args.trace, args.repeat, provenance))
    worst = 0
    for workload in workloads:
        rc, result = run_once(binary, workload, args.seed, args.seconds,
                              args.trace, provenance)
        if result is None and rc == 0:
            rc = 1
        worst = max(worst, rc)
    sys.exit(worst)


if __name__ == "__main__":
    main()
