#!/usr/bin/env python3
"""Build the wall-clock benchmark and run one workload.

    python3 perfbench/run.py --workload serve-read|serve-mixed|island-batch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The C++ package in perfbench/ is
configured and built (incrementally) under $CARGO_TARGET_DIR, default
.bench_build, its self-tests run, and then igcn_perfbench measures the
workload. Build and self-test output go to stderr; stdout carries the
run's summary and, as its last line, the result object whose metrics
are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1), in that file's order; per-layer metrics of layers the
workload bypasses read 0. A traced run also writes a Perfetto trace to
<build>/traces/. Any failure exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-read", "serve-mixed", "island-batch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; False if it failed."""
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return False
    return res.returncode == 0


def cached_source_dir(build_dir):
    """The source directory a build directory was configured for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    # Configure every run: it is cheap when nothing changed, and it
    # fails in a directory without the library sources. A build
    # directory shared with another checkout is wiped first, so the
    # binary is always built from this checkout's sources.
    source_dir = os.path.join(ROOT, "perfbench")
    cached = cached_source_dir(build_dir)
    if cached is not None and (os.path.realpath(cached) !=
                               os.path.realpath(source_dir)):
        shutil.rmtree(build_dir)
    if not run_logged(["cmake", "-S", source_dir, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs],
                      BUILD_TIMEOUT_S):
        fail("build failed")
    try:
        res = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"self-tests did not run: {e}")
    if res.returncode != 0:
        print(res.stdout + res.stderr, file=sys.stderr)
        fail("self-tests failed")


def spec_metrics(trace):
    """(name, unit) of BENCHMARK.json's end_to_end or per_layer list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def canonical_metrics(got, trace):
    """Put the emitted metrics in BENCHMARK.json's order. A traced run
    reports 0 for the layers its workload bypasses; any other missing
    name, unknown name or unit mismatch is an error."""
    spec = spec_metrics(trace)
    units = dict(spec)
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            fail(f"metric {name} [{m['unit']}] is not in BENCHMARK.json")
    missing = [name for name, _ in spec if name not in got]
    if missing and not trace:
        fail(f"missing end-to-end metrics: {missing}")
    return {name: got.get(name, {"value": 0, "unit": unit})
            for name, unit in spec}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build", "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "igcn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"igcn_perfbench did not finish: {e}")
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"igcn_perfbench exited with {res.returncode}")

    result = json.loads(lines[-1])
    result["metrics"] = canonical_metrics(result["metrics"], args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
