#!/usr/bin/env python3
"""Smoke test of bench_serve_layers (ctest bench_serve_layers_smoke).

    smoke.py <bench_serve_layers binary> <output directory>

Runs every workload of BENCHMARK.json at --smoke size, untraced and traced,
and fails unless each run exits 0, prints every end_to_end (untraced) or
per_layer (traced) metric of BENCHMARK.json with its unit, reports
failed_ratio 0, and — traced — writes a Chrome trace that parses, whose
spans all lie inside their parents, with no negative self time.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def printed_metrics(stdout):
    """name -> (value, unit) for every `name value unit ...` line."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            metrics[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            pass
    return metrics


def trace_errors(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["span"]: e for e in events}
    children = {}
    for event in events:
        children.setdefault(event["args"]["parent"], []).append(event)
    errors = []
    # Timestamps are microseconds with three decimals; allow that rounding.
    slack = 0.002
    for index, span in spans.items():
        parent = spans.get(span["args"]["parent"])
        end = span["ts"] + span.get("dur", 0.0)
        if parent is not None and (
                span["ts"] < parent["ts"] - slack or
                end > parent["ts"] + parent["dur"] + slack):
            errors.append(f"span {index} ({span['name']}) outside its parent")
        if span["ph"] != "X":
            continue
        covered, cursor = 0.0, span["ts"]
        for start, stop in sorted((c["ts"], c["ts"] + c.get("dur", 0.0))
                                  for c in children.get(index, [])):
            lo, hi = max(start, cursor), min(stop, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        if span["dur"] < 0 or span["dur"] - covered < -slack:
            errors.append(f"span {index} ({span['name']}) has negative self time")
    return errors


def main():
    binary, out_dir = sys.argv[1], sys.argv[2]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (False, True):
            label = f"{workload} {'traced' if traced else 'untraced'}"
            command = [binary, "--workload", workload, "--smoke"]
            trace_path = os.path.join(out_dir, f"{workload}.trace.json")
            if traced:
                command += ["--trace", trace_path]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                errors.append(f"{label}: exit code {proc.returncode}")
            printed = printed_metrics(proc.stdout)
            section = spec["per_layer"] if traced else spec["end_to_end"]
            for metric in section:
                value_unit = printed.get(metric["name"])
                if value_unit is None or value_unit[1] != metric["unit"]:
                    errors.append(f"{label}: {metric['name']} not printed "
                                  f"in {metric['unit']}")
            if printed.get("failed_ratio", (None,))[0] != 0.0:
                errors.append(f"{label}: failed_ratio is not 0")
            if traced:
                try:
                    errors += [f"{label}: {e}" for e in trace_errors(trace_path)]
                except (OSError, ValueError, KeyError) as error:
                    errors.append(f"{label}: trace unreadable: {error}")
            print(f"{label}: done", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
