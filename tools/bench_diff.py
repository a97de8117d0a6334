#!/usr/bin/env python3
"""Diff two BENCH_*.json reports and gate on perf regressions.

The perf-regression harness (docs/PROFILING.md): compares a CURRENT
eal-bench-v1 report against a BASELINE (typically the checked-in file
under bench/baselines/), record by record, and fails when the execute
time of any sufficiently-long record regressed past the threshold.

Usage:
  bench_diff.py BASELINE CURRENT [options]
  bench_diff.py --overhead REPORT [options]
  bench_diff.py --self-test

Options:
  --max-time-regress R   fail when current/baseline - 1 > R for any
                         gated record (default 0.10, i.e. +10%)
  --min-seconds S        noise floor: records whose baseline time is
                         below S seconds are reported but never gate
                         (default 0.005; container timers are coarse)
  --max-overhead R       --overhead gate threshold (default 0.02)

--overhead mode gates the flight recorder's self-measurement
(docs/RECORDER.md) inside ONE report: every record pair named
<base>/recorder_on + <base>/recorder_off is compared, and the diff
fails when on/off - 1 exceeds --max-overhead for a pair above the
--min-seconds floor, or when the report contains no such pair at all (a
silently vanished measurement must not read as "no overhead").

Per record the preferred time is execute_seconds (best-of-K execute
phase, written by benches that measure it); wall_seconds (whole
pipeline, one shot) is the fallback and is noisier -- set a generous
--min-seconds when only wall times are available.

A record present in BASELINE but missing from CURRENT fails the diff (a
silently dropped configuration is how regressions hide); a record only
in CURRENT is reported as new and does not gate.  Counter drift (storage
counters changing between same-named records) always gates: counters are
deterministic for a given binary, so drift means behavior changed.  An
intended change refreshes the baseline (docs/PROFILING.md).

Exit status: 0 when no gated regression, 1 otherwise, 2 on usage error.

Only the Python standard library is used.
"""

import json
import os
import sys
import tempfile

from check_json import BENCH_SCHEMA as SCHEMA, CELL_CLASSES

# Storage counters whose drift is worth reporting; a subset of the
# eal-bench-v1 required counters (tools/check_json.py).
DRIFT_COUNTERS = CELL_CLASSES + ("dcons_reuses", "gc_runs")


def load_report(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        errors.append("%s: cannot load: %s" % (path, e))
        return None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        errors.append("%s: 'schema' is %r, expected %r"
                      % (path, doc.get("schema") if isinstance(doc, dict)
                         else None, SCHEMA))
        return None
    records = doc.get("records")
    if not isinstance(records, list):
        errors.append("%s: 'records' is not an array" % path)
        return None
    by_name = {}
    for record in records:
        if isinstance(record, dict) and isinstance(record.get("name"), str):
            by_name[record["name"]] = record
    return by_name


def record_seconds(record):
    """(seconds, which) preferring execute_seconds over wall_seconds."""
    execute = record.get("execute_seconds")
    if isinstance(execute, (int, float)) and not isinstance(execute, bool) \
            and execute >= 0:
        return float(execute), "execute_seconds"
    wall = record.get("wall_seconds")
    if isinstance(wall, (int, float)) and not isinstance(wall, bool) \
            and wall >= 0:
        return float(wall), "wall_seconds"
    return None, None


def diff_reports(baseline, current, max_regress, min_seconds, out=None):
    """Returns a list of failure strings; prints a per-record report."""
    # Late-bound so contextlib.redirect_stdout (self-test) is honored.
    out = out if out is not None else sys.stdout
    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        cur = current.get(name)
        if cur is None:
            failures.append("record %r present in baseline but missing "
                            "from current" % name)
            continue

        base_sec, base_kind = record_seconds(base)
        cur_sec, cur_kind = record_seconds(cur)
        if base_sec is None or cur_sec is None:
            failures.append("record %r has no usable time" % name)
            continue
        if base_kind != cur_kind:
            # Comparing execute vs wall times is apples to oranges.
            out.write("note %s: baseline has %s, current has %s; "
                      "comparing anyway\n" % (name, base_kind, cur_kind))

        if base_sec <= 0:
            ratio = None
            verdict = "n/a "
        else:
            ratio = cur_sec / base_sec - 1.0
            if base_sec < min_seconds:
                verdict = "skip"  # under the noise floor: never gates
            elif ratio > max_regress:
                verdict = "FAIL"
                failures.append(
                    "record %r: %s regressed %+.1f%% "
                    "(%.6fs -> %.6fs, threshold +%.1f%%)"
                    % (name, base_kind, 100 * ratio, base_sec, cur_sec,
                       100 * max_regress))
            else:
                verdict = "ok  "
        out.write("%s %s: %.6fs -> %.6fs%s [%s]\n"
                  % (verdict, name, base_sec, cur_sec,
                     "" if ratio is None else " (%+.1f%%)" % (100 * ratio),
                     base_kind or "?"))

        base_counters = base.get("counters") or {}
        cur_counters = cur.get("counters") or {}
        for key in DRIFT_COUNTERS:
            b, c = base_counters.get(key), cur_counters.get(key)
            if isinstance(b, int) and isinstance(c, int) and b != c:
                message = ("record %r: counter %s drifted %d -> %d"
                           % (name, key, b, c))
                out.write("FAIL %s\n" % message)
                failures.append(message)

    for name in sorted(set(current) - set(baseline)):
        out.write("new  %s (not in baseline, not gated)\n" % name)
    return failures


def run_diff(baseline_path, current_path, max_regress, min_seconds):
    errors = []
    baseline = load_report(baseline_path, errors)
    current = load_report(current_path, errors)
    for e in errors:
        print("FAIL %s" % e)
    if baseline is None or current is None:
        return 1
    failures = diff_reports(baseline, current, max_regress, min_seconds)
    for f in failures:
        print("FAIL %s" % f)
    if not failures:
        print("ok   %s vs %s: no gated regression"
              % (os.path.basename(baseline_path),
                 os.path.basename(current_path)))
    return 1 if failures else 0


def run_overhead(path, max_overhead, min_seconds):
    errors = []
    report = load_report(path, errors)
    for e in errors:
        print("FAIL %s" % e)
    if report is None:
        return 1
    failures = []
    pairs = 0
    for name in sorted(report):
        if not name.endswith("/recorder_off"):
            continue
        on_name = name[:-len("/recorder_off")] + "/recorder_on"
        on = report.get(on_name)
        if on is None:
            failures.append("record %r has no %r sibling" % (name, on_name))
            continue
        pairs += 1
        off_sec, off_kind = record_seconds(report[name])
        on_sec, on_kind = record_seconds(on)
        if off_sec is None or on_sec is None:
            failures.append("pair %r has no usable time" % name)
            continue
        if off_sec <= 0:
            print("n/a  %s: off time is zero" % name)
            continue
        ratio = on_sec / off_sec - 1.0
        if off_sec < min_seconds:
            verdict = "skip"  # under the noise floor: never gates
        elif ratio > max_overhead:
            verdict = "FAIL"
            failures.append(
                "pair %r: recorder overhead %+.2f%% exceeds +%.2f%% "
                "(off %.6fs, on %.6fs)"
                % (name, 100 * ratio, 100 * max_overhead, off_sec, on_sec))
        else:
            verdict = "ok  "
        print("%s %s: off %.6fs, on %.6fs (%+.2f%%) [%s]"
              % (verdict, name, off_sec, on_sec, 100 * ratio,
                 off_kind or "?"))
    if pairs == 0:
        failures.append("%s: no recorder_on/recorder_off pair found" % path)
    for f in failures:
        print("FAIL %s" % f)
    if not failures:
        print("ok   %s: recorder overhead within +%.2f%% on %d pair(s)"
              % (os.path.basename(path), 100 * max_overhead, pairs))
    return 1 if failures else 0


def self_test():
    def report(records):
        return {"schema": SCHEMA, "bench": "demo", "records": records}

    def record(name, execute, wall=1.0, counters=None):
        rec = {"name": name, "n": 4, "wall_seconds": wall,
               "counters": counters or {"heap_cells_allocated": 10,
                                        "gc_runs": 1}}
        if execute is not None:
            rec["execute_seconds"] = execute
        return rec

    base = report([record("a", 0.100), record("b", 0.100)])
    cases = [
        ("identical reports pass",
         base, report([record("a", 0.100), record("b", 0.100)]), [], True),
        ("5% regression under a 10% threshold passes",
         base, report([record("a", 0.105), record("b", 0.100)]), [], True),
        ("20% regression fails",
         base, report([record("a", 0.120), record("b", 0.100)]), [], False),
        ("20% speedup passes",
         base, report([record("a", 0.080), record("b", 0.100)]), [], True),
        ("missing record fails",
         base, report([record("a", 0.100)]), [], False),
        ("new record does not gate",
         base, report([record("a", 0.100), record("b", 0.100),
                       record("c", 9.9)]), [], True),
        ("sub-floor record never gates",
         report([record("a", 0.0001)]), report([record("a", 0.0009)]),
         [], True),
        ("wall time is the fallback",
         report([record("a", None, wall=0.100)]),
         report([record("a", None, wall=0.200)]), [], False),
        ("counter drift fails",
         base,
         report([record("a", 0.100,
                        counters={"heap_cells_allocated": 11, "gc_runs": 1}),
                 record("b", 0.100)]), [], False),
        ("tighter threshold gates a 5% regression",
         base, report([record("a", 0.105), record("b", 0.100)]),
         ["--max-time-regress", "0.01"], False),
    ]

    def pair(on, off):
        return report([record("obs_overhead/x/recorder_on", on),
                       record("obs_overhead/x/recorder_off", off)])

    overhead_cases = [
        ("1% overhead under the 2% gate passes",
         pair(0.101, 0.100), [], True),
        ("5% overhead fails the 2% gate",
         pair(0.105, 0.100), [], False),
        ("recorder faster than baseline passes",
         pair(0.095, 0.100), [], True),
        ("sub-floor pair never gates",
         pair(0.0009, 0.0001), [], True),
        ("missing recorder_on sibling fails",
         report([record("obs_overhead/x/recorder_off", 0.1)]), [], False),
        ("report without any pair fails",
         report([record("a", 0.1)]), [], False),
        ("tighter --max-overhead 0 gates any overhead",
         pair(0.101, 0.100), ["--max-overhead", "0"], False),
        ("zero overhead passes --max-overhead 0",
         pair(0.100, 0.100), ["--max-overhead", "0"], True),
    ]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="eal-bench-diff-") as tmp:
        for label, doc, extra, expect_ok in overhead_cases:
            rp = os.path.join(tmp, "overhead.json")
            with open(rp, "w") as f:
                json.dump(doc, f)
            code = main(["bench_diff.py", "--overhead", rp] + extra,
                        quiet=True)
            got_ok = code == 0
            status = "ok  " if got_ok == expect_ok else "FAIL"
            if got_ok != expect_ok:
                failures += 1
            print("%s self-test: %s (pass=%s, expected %s)"
                  % (status, label, got_ok, expect_ok))
        for label, base_doc, cur_doc, extra, expect_ok in cases:
            bp = os.path.join(tmp, "base.json")
            cp = os.path.join(tmp, "cur.json")
            with open(bp, "w") as f:
                json.dump(base_doc, f)
            with open(cp, "w") as f:
                json.dump(cur_doc, f)
            code = main(["bench_diff.py", bp, cp] + extra, quiet=True)
            got_ok = code == 0
            status = "ok  " if got_ok == expect_ok else "FAIL"
            if got_ok != expect_ok:
                failures += 1
            print("%s self-test: %s (pass=%s, expected %s)"
                  % (status, label, got_ok, expect_ok))
        with open(os.path.join(tmp, "bad.json"), "w") as f:
            f.write("{ not json")
        if main(["bench_diff.py", os.path.join(tmp, "bad.json"),
                 os.path.join(tmp, "bad.json")], quiet=True) != 0:
            print("ok   self-test: malformed JSON rejected")
        else:
            print("FAIL self-test: malformed JSON accepted")
            failures += 1
    return 0 if failures == 0 else 1


def main(argv, quiet=False):
    args = argv[1:]
    if args and args[0] == "--self-test":
        return self_test()
    max_regress = 0.10
    min_seconds = 0.005
    max_overhead = 0.02
    overhead = False
    paths = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--max-time-regress" and i + 1 < len(args):
            max_regress = float(args[i + 1])
            i += 2
        elif arg == "--min-seconds" and i + 1 < len(args):
            min_seconds = float(args[i + 1])
            i += 2
        elif arg == "--max-overhead" and i + 1 < len(args):
            max_overhead = float(args[i + 1])
            i += 2
        elif arg == "--overhead":
            overhead = True
            i += 1
        elif arg.startswith("-"):
            print(__doc__)
            return 2
        else:
            paths.append(arg)
            i += 1
    if len(paths) != (1 if overhead else 2):
        print(__doc__)
        return 2

    def run():
        if overhead:
            return run_overhead(paths[0], max_overhead, min_seconds)
        return run_diff(paths[0], paths[1], max_regress, min_seconds)

    if quiet:
        import io
        import contextlib
        with contextlib.redirect_stdout(io.StringIO()):
            return run()
    return run()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
