#!/usr/bin/env python3
"""Builds and runs the Bifrost repository benchmark.

    python3 perfbench/run.py --workload ab-sticky --seed 1 --seconds 30 --trace 0

Workloads: ab-sticky, darklaunch-ramp, check-storm (see perfbench/NOTES.md);
--workload all runs the three in turn, each printing its own result line.
The first run configures and builds the Bifrost libraries from src/ and
the perfbench binary into .bench_build/ at the repository root; later
runs rebuild incrementally. The binary's report lines (load shape,
checks, the workload's own metric names) are passed through. The last
line printed is one JSON object with "correct", "attempted", "failed" and
"metrics": exactly the end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1) that BENCHMARK.json lists. A per-layer metric of a
layer the workload does not drive is reported as 0.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("ab-sticky", "darklaunch-ramp", "check-storm")
# The binary ends itself after 170 s; this is the outer guard.
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def select_metrics(spec, measured, traced):
    """Maps the binary's metrics onto the list BENCHMARK.json declares."""
    declared = spec["per_layer" if traced else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise ValueError("metrics not declared in BENCHMARK.json: %s" % unknown)
    metrics, idle = {}, []
    for metric in declared:
        name = metric["name"]
        if name not in measured:
            if not traced:
                raise ValueError("end-to-end metric missing: %s" % name)
            metrics[name] = {"value": 0.0, "unit": metric["unit"]}
            idle.append(name)
            continue
        if measured[name]["unit"] != metric["unit"]:
            raise ValueError("unit of %s is %s, declared %s" % (
                name, measured[name]["unit"], metric["unit"]))
        metrics[name] = {"value": measured[name]["value"],
                         "unit": metric["unit"]}
    return metrics, idle


def run(spec, workload, args):
    """Runs one workload and prints its report and result; returns the
    exit code."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD_DIR, "run")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        log("run timed out")
        return 3
    lines = output.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line (exit code %d)" % process.returncode)
        return 4
    if process.returncode != 0 or not result.get("correct"):
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1
    try:
        metrics, idle = select_metrics(spec, result["metrics"],
                                       args.trace == 1)
    except ValueError as error:
        log(str(error))
        return 5
    if idle:
        print("layers not driven by %s (reported as 0): %s" % (
            workload, ", ".join(idle)))
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if not build():
        log("build failed")
        return 2
    if args.workload != "all":
        return run(spec, args.workload, args)
    codes = [run(spec, workload, args) for workload in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
