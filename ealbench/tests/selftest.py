#!/usr/bin/env python3
"""Self-test of the eal benchmark.

    python3 ealbench/tests/selftest.py [--seconds 3] [--seeds 5]

Run it from the repository root. It checks that

1. every workload prints exactly the metrics BENCHMARK.json names, with
   their units, and that every value and replay matches its reference
   (correct, failed = 0, check.refutations = 0);
2. two traced runs with the same seed report identical per-layer counts
   (every per-layer metric that is not a time or a driver.* ratio);
3. a planted delay around eal::Vm::run, larger than the bound on
   latency_p50_ms and programs_per_s, is flagged on run_bound and stays
   within those bounds on compile_bound. Each seed gives one planted
   run and one clean run next to it; the check takes the median of
   their ratios. The delay is added by the benchmark's link-time
   wrapper of Vm::run, so src/ is untouched.

Exits 0 when every check passes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "ealbench", "run.py")

# Extra Vm::run time as a multiple of its own: +60% VM time.
PLANTED_DELAY = 0.6

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def run(workload, seed, seconds, trace, delay=0.0):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if delay:
        command += ["--plant-vm-delay", str(delay)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        sys.exit("selftest: %s exited with %d" % (" ".join(command), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def is_count(name):
    return not name.endswith("_us") and not name.startswith("driver.")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # 1 and 2: names, units, correctness, count determinism.
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, 7, args.seconds, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == units[trace],
                  "%s trace %d prints the BENCHMARK.json metrics" % (workload, trace))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace %d: %d programs, all correct"
                  % (workload, trace, result["attempted"]))
            if trace:
                check(result["metrics"]["check.refutations"]["value"] == 0,
                      "%s: no oracle refutations" % workload)
                again = run(workload, 7, args.seconds, trace)
                counts = {k: v["value"] for k, v in result["metrics"].items() if is_count(k)}
                counts2 = {k: v["value"] for k, v in again["metrics"].items() if is_count(k)}
                check(counts == counts2,
                      "%s: per-layer counts repeat exactly under one seed" % workload)

    # 3: the planted slowdown, as the median of paired ratios (planted
    # over clean, adjacent runs of one seed, alternating which goes
    # first) so that the machine's slow drift cancels.
    for workload, flagged in (("run_bound", True), ("compile_bound", False)):
        worse = {"latency_p50_ms": [], "programs_per_s": []}
        for seed in range(1, args.seeds + 1):
            sides = [0.0, PLANTED_DELAY] if seed % 2 else [PLANTED_DELAY, 0.0]
            runs = {d: run(workload, seed, args.seconds, 0, d)["metrics"] for d in sides}
            clean, slow = runs[0.0], runs[PLANTED_DELAY]
            worse["latency_p50_ms"].append(
                slow["latency_p50_ms"]["value"] / clean["latency_p50_ms"]["value"] - 1)
            worse["programs_per_s"].append(
                1 - slow["programs_per_s"]["value"] / clean["programs_per_s"]["value"])
        for name, ratios in worse.items():
            w = statistics.median(ratios)
            if flagged:
                check(w > bounds[name],
                      "%s %s worse by %.1f%% under the planted delay (bound %.0f%%)"
                      % (workload, name, 100 * w, 100 * bounds[name]))
            else:
                check(w <= bounds[name],
                      "%s %s within bound under the planted delay: %+.1f%% (bound %.0f%%)"
                      % (workload, name, 100 * w, 100 * bounds[name]))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
