#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench and freehgc_server from the sources of this checkout
(CMake, Release) and runs one workload, or all of them:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --selftest

Run it from the root of the checkout. The build tree is $CARGO_TARGET_DIR
when set, else .bench_build/. Build output goes to stderr; the last line
of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["oneshot_aminer", "serve_warm", "serve_churn"]
HERE = os.path.dirname(os.path.abspath(__file__))
# A single workload run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir, targets):
    """Configures (once) and builds `targets`; exits 1 on failure."""
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=out, stderr=out) != 0:
        sys.exit("perfbench: build failed")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(".bench_tmp", ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark self-test only")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.selftest:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.call([os.path.join(build_dir,
                                               "perfbench_selftest")]))
    build(build_dir, ["perfbench", "freehgc_server"])
    binary = os.path.join(build_dir, "perfbench")

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        for line in lines:
            print(line)
        sys.exit(code)

    # Every workload, each in a fresh process; one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args.seed, args.seconds,
                              args.trace)
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            sys.exit(f"perfbench: {workload} failed (exit {code})")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
