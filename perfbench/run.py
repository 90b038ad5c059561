#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve-207 --seed 1 --seconds 20 --trace 0

Builds the benchmark binary from this checkout's sources (first run only;
later runs rebuild incrementally) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, runs the workload in its own process
and relays its report. The last line of standard output is the JSON
result. Exit code 0 only when every output check passed. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def run_logged(cmd, timeout):
    """Runs `cmd`, sending its output to stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))


def source_id():
    """Hash of every source file the benchmark binary is built from.

    It keys the cross-run digests, so runs are compared only against
    earlier runs of the same code.
    """
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "bench", "bench_common.h"),
             os.path.join(ROOT, "bench", "bench_common.cc"),
             os.path.join(HERE, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("program sources missing (%s); run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "perfbench"], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_benchmark()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %s (known: %s)" % (args.workload,
                                                   ", ".join(workloads)))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                          os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--work-dir", work_dir,
              "--digest-file", os.path.join(build_dir, "digests.txt"),
              "--source-id", source_id()]
    try:
        if run_logged([binary] + common + ["--prepare", "1"],
                      RUN_TIMEOUT_S) != 0:
            fail("input preparation failed", 1)
        proc = subprocess.Popen([binary] + common, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("workload timed out", 1)
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.isfile(spans):
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.move(spans, os.path.join(
                trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the workload printed no result", 1)
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    if list(result["metrics"]) != declared:
        sys.stdout.write(out)
        fail("result metrics differ from BENCHMARK.json", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
