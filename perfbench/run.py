#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the labeling stack.

Run from the repository root:

    python3 perfbench/run.py --workload docstore-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

`--workload all` runs the three workloads one after the other.

The benchmark is compiled (Release) into .bench_build/ on first use, from
perfbench/ and the library sources in src/. The last line of standard
output is the JSON result; build output goes to .bench_build/build.log.
A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "perfbench")
# A run measures for --seconds after one warm-up round; well inside this.
RUN_TIMEOUT_S = 170
WORKLOADS = ("docstore-mixed", "xml-ingest-query", "replica-lossy")


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_BUILD, "--target", target,
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(CMAKE_BUILD, target)


def run(command):
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return 1 if binary is None else run([binary])

    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("ltree_e2e_bench")
    if binary is None:
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (workload, args.seed))]
        sys.stdout.flush()
        status = run(command) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
