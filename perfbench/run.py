#!/usr/bin/env python3
"""End-to-end benchmark of pals: build, run one workload, report.

    python3 perfbench/run.py --workload sweep-static --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds perfbench/ (a Release build of ../src plus the benchmark) into
.bench_build/perfbench. Each run executes one workload in a fresh
process, echoes its human-readable report and prints, as the last line,
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (the names listed in BENCHMARK.json). The full report, with
its seed and environment fingerprint, is kept under
.bench_build/perfbench/reports/. README.md in this directory explains
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep-static", "sweep-dynamic", "serve-zipf")
# A seed kept out of tuning, for confirming later performance claims.
HELD_OUT_SEED = 20090525
# Build types whose numbers may be reported.
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo", "MinSizeRel")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def binary_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_counts(report, binary, key):
    """Exact-repeat counts must match every earlier run of the same
    binary, workload, seed and trace mode. Returns the drifted names."""
    store = os.path.join(BUILD, "counts", binary_digest(binary))
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    counts = report["counts"]
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
        return []
    with open(path) as f:
        earlier = json.load(f)
    return sorted(k for k in set(earlier) | set(counts)
                  if earlier.get(k) != counts.get(k))


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    binary = os.path.join(BUILD, "pals_perfbench")
    # Relative, so the server's Unix socket path stays short.
    work = os.path.relpath(os.path.join(BUILD, "work", str(os.getpid())))
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload=" + args.workload,
               "--seed=" + str(args.seed), "--seconds=" + str(args.seconds),
               "--trace=" + str(args.trace), "--work-dir=" + work]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: %s exited %d" % (args.workload, done.returncode))
        print("\n".join(lines))
        return 1
    report = json.loads(lines[-1])
    env = report["env"]
    if env["build_type"] not in OPTIMIZED_BUILDS or env["sanitizers"] != "none":
        log("perfbench: refusing to report numbers from a %s build with "
            "sanitizers %s" % (env["build_type"], env["sanitizers"]))
        return 1
    for line in lines[:-1]:
        print(line)

    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    key = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(reports, key + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    failed = report["failed"]
    drifted = check_counts(report, binary, key)
    for name in drifted:
        print("FAILED: count %s differs from an earlier run of this seed" % name)
    failed += len(drifted)
    metrics = report["metrics"]
    wanted = expected_metrics(args.trace) or list(metrics)
    missing = [name for name in wanted if name not in metrics]
    for name in missing:
        print("FAILED: metric %s was not measured" % name)
    attempted = max(1, report["attempted"])
    print("seed %d%s, failed_ratio = %d/%d = %.6f" % (
        args.seed, " (held out)" if args.seed == HELD_OUT_SEED else "",
        failed, attempted, failed / attempted))
    correct = failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
