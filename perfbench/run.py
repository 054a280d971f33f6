#!/usr/bin/env python3
"""One-command SciDB benchmark.

Builds the harness (perfbench/CMakeLists.txt: the library sources plus
perfbench/harness, RelWithDebInfo) into .bench_build/perfbench, runs one
workload, checks the result line against BENCHMARK.json and prints it.

    python3 perfbench/run.py --workload ssdb|front_door|grid \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # the three in turn
    python3 perfbench/run.py --self-test

Run from the repository root. Human-readable lines come first; the last
stdout line is one JSON object with keys correct, attempted, failed and
metrics (the end-to-end metrics untraced, the per-layer ones traced).
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "scidb_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["ssdb", "front_door", "grid"]
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialised by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "session.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd[:2]))


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is valid."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return "metric %s has no finite value" % name
        if m.get("unit") != want[name]:
            return "metric %s unit %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), want[name])
    return None


def run_one(workload, args):
    """Runs one workload; returns its validated result line."""
    cmd = [BINARY, "--out-dir", OUT_DIR, "--seed", str(args.seed),
           "--workload", workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        print("\n".join(lines))  # the harness prints no result on failure
        fail("harness exited with %d" % r.returncode)
    err = check_result(lines[-1], args.trace == 1)
    print("\n".join(lines[:-1]))
    if err is not None:
        fail(err)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the oracles flag a corrupted result")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        try:
            r = subprocess.run([BINARY, "--out-dir", OUT_DIR, "--self-test",
                                "--seed", str(args.seed)], cwd=ROOT,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("self-test exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(r.returncode)
    if args.workload != "all":
        print(run_one(args.workload, args))
        return
    # All three in turn: each prints its lines, then a labelled result.
    correct = True
    for w in WORKLOADS:
        line = run_one(w, args)
        correct = correct and json.loads(line)["correct"]
        print("result %s %s" % (w, line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
