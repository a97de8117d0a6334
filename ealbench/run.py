#!/usr/bin/env python3
"""Builds and runs the eal end-to-end benchmark (see README.md).

    python3 ealbench/run.py --workload compile_bound --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds ealbench/ (which compiles src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary. With --trace 0 it also launches the binary in set-up-only
mode several times and reports the median time from process launch to the
first measured program as setup_s. Every metric is printed as
"name = value unit"; the last line of stdout is the result as one JSON
object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 15


def fail(message):
    print("ealbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the benchmark; returns (build dir, binary)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "Pipeline.h")):
        fail("eal sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join(ROOT, "examples", "nml")):
        fail("examples/nml not found under " + ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))
    return build_dir, os.path.join(build_dir, "ealbench")


def launch(command):
    """Starts the binary; returns (process, seconds until it printed "ready")."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    ready = time.perf_counter() - start
    if not first.startswith("ready"):
        proc.stdout.read()
        proc.wait()
        fail("benchmark binary failed during set-up")
    return proc, ready


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile_bound", "run_bound", "check_bound"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--plant-vm-delay", type=float, default=0.0,
                        help="self-test only: extra time in every Vm::run call, "
                             "as a multiple of the call's own time")
    args = parser.parse_args()

    build_dir, binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--repo", ROOT, "--plant-vm-delay", str(args.plant_vm_delay)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            proc, ready = launch(command + ["--setup-only"])
            proc.stdout.read()
            if proc.wait() != 0:
                fail("set-up-only run failed")
            setup.append(ready)

    run = command + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        run += ["--spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    proc, ready = launch(run)
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        fail("benchmark run failed")
    setup.append(ready)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("setup_s samples: %d (%d set-up-only launches + the measured run)"
              % (len(setup), SETUP_RUNS))
    for name, metric in result["metrics"].items():
        print("%s = %s %s" % (name, metric["value"], metric["unit"]))
    print("correct = %s, attempted = %d, failed = %d"
          % (result["correct"], result["attempted"], result["failed"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
