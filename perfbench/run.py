#!/usr/bin/env python3
"""Builds and runs the canonical benchmark (perfbench) from this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
repository's libraries and the harness into .bench_build/ (Release); later
runs only re-check the build. The harness prints the workload's provenance,
a readable table and, as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer ledger with --trace 1.

On top of the harness's own checks, zipf-direct's exact counts (pages,
tuples, chunks requested, cache insertions and evictions) are compared with
those of earlier runs of the same binary at the same seed; a difference is a
harness fault and marks the run incorrect.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("session-served", "zipf-direct", "mixed-open")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the harness; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 3)


def check_exact_counts(build_dir, binary, seed, lines):
    """Compares this run's zipf-direct counts, per sub-stream, with earlier
    runs of the same binary at the same seed; returns False on a difference."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(build_dir, "exact-counts")
    os.makedirs(store, exist_ok=True)
    same = True
    for line in lines:
        counts = json.loads(line.split(":", 1)[1])
        path = os.path.join(
            store, f"{digest}-seed{seed}-stream{counts['stream']}.json")
        if os.path.exists(path):
            with open(path) as f:
                earlier = json.load(f)
            if earlier != counts:
                print(f"harness fault: zipf-direct counts at seed {seed} "
                      f"differ from an earlier run: {earlier} vs {counts}",
                      file=sys.stderr)
                same = False
        else:
            with open(path, "w") as f:
                json.dump(counts, f)
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found at the checkout root: nothing to build")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    binary = os.path.join(build_dir, "perfbench")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if result is None or done.returncode not in (0, 1):
        fail(f"harness exited with code {done.returncode} and no result", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has unexpected keys", 3)

    counts = [l for l in lines if l.startswith("exact-counts:")]
    if not check_exact_counts(build_dir, binary, args.seed, counts):
        result["correct"] = False

    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
