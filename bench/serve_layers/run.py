#!/usr/bin/env python3
"""Builds bench_serve_layers from source and runs one workload.

Run from the repository root:

    python3 bench/serve_layers/run.py --workload replay --seed 11 \
        --seconds 10 --trace 0

The benchmark is built as a target of the top-level CMake project, in
$CARGO_TARGET_DIR/serve_layers (default .bench_build/serve_layers). The
benchmark's own `name value unit` lines are
echoed; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones (and writes the
Chrome trace next to the build). Exits nonzero, without a result line, when
the build or the benchmark cannot run; exits 1 after the result line when
an output was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run(command, timeout):
    """Runs `command` to completion; its output goes to stderr."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")


def build(build_dir):
    """Configures the top-level project with this directory attached (see
    in_root_build.cmake) and builds only the benchmark and the library."""
    configure = ["cmake", "-S", ROOT, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_PROJECT_hotspot_forecast_INCLUDE=" +
                 os.path.join(HERE, "in_root_build.cmake")]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    if run(configure, BUILD_TIMEOUT_S) != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "--target", "bench_serve_layers",
            "-j", jobs], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_serve_layers")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "serve_layers")
    binary = build(build_dir)

    stem = os.path.join(build_dir, f"{args.workload}-{args.seed}-{args.trace}")
    result_path = stem + ".result.json"
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--json", result_path]
    if args.trace:
        command += ["--trace", stem + ".trace.json"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stdout.write(proc.stdout)
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        fail(f"benchmark exited {proc.returncode} without a result")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in section:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
