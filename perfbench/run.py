#!/usr/bin/env python3
"""Builds and runs the seeded SDK benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload build|serve_steady|serve_burst|all \\
        --seed N --seconds S --trace 0|1

The first call configures and builds the SDK libraries and the benchmark
driver from source into .bench_build/ (CMake, Release); later calls only
rebuild what changed. Build output goes to stderr. Every metric is printed
by name with its unit and clock; the last line of stdout is the JSON result.
`--workload all` runs the three workloads one after another, each in its own
process, and prefixes the metrics of the combined result with the workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ["build", "serve_steady", "serve_burst"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    for needed in ("src/CMakeLists.txt", "tests/data/dot.ekl"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an SDK checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload; prints its report and returns its JSON result."""
    trace_out = os.path.join(BUILD_DIR, f"trace-{workload}.json")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_out]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"{workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail(f"the last line of the {workload} output is not JSON")
    print("\n".join(lines[:-1]), flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build(os.getcwd())
    if args.workload != "all":
        print(json.dumps(run_workload(binary, args.workload, args)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
