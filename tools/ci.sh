#!/usr/bin/env bash
# CI driver: build + tier-1 test the four configurations that keep the
# codebase honest (docs/CHECKING.md):
#
#   release   Release, -Werror         the configuration users build
#   asan      AddressSanitizer        heap bugs the GC could be hiding
#   ubsan     UndefinedBehaviorSanitizer, -fno-sanitize-recover=all
#   portable  Release with -DEAL_COMPUTED_GOTO=OFF: the VM's switch
#             dispatch loop, which non-GNU compilers get
#   tsan      ThreadSanitizer over what still meets more than one
#             thread or stack: the metrics registry's lock, the
#             RecorderStress tests' producer threads, and the
#             LargeStack fiber switches; the product itself starts no
#             thread
#
# Each configuration builds into build-ci-<name>/ at the repo root and
# runs the tier-1 ctest suite (tier2 benches/sweeps are excluded: they
# measure, they don't gate). The release configuration then runs a fuzz
# smoke (the property suite's Fuzz instantiation widened to fresh seeds
# via EAL_FUZZ_SEEDS, see tests/property/DifferentialTest.cpp) and the
# perf-regression gate: the JSON-writing benches' sweeps run into
# build-ci-release/bench-archive/ and tools/bench_diff.py compares each
# BENCH_*.json against the checked-in baseline under bench/baselines/,
# failing on execute-time regressions past EAL_BENCH_MAX_REGRESS
# (default +10%; see docs/PROFILING.md) and on any storage-counter
# drift. The same gate holds the flight
# recorder to its always-on budget: bench_engines self-measures execute
# time with the lite tier on vs off and bench_diff.py --overhead fails
# past EAL_BENCH_MAX_OVERHEAD (default +2%; docs/RECORDER.md). Usage:
#
#   tools/ci.sh            all four configurations
#   tools/ci.sh asan       just one
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
CHECK_JSON="$REPO/tools/check_json.py"
JOBS="$(nproc 2>/dev/null || echo 4)"
FUZZ_SEEDS="${EAL_FUZZ_SEEDS:-48}"
BENCH_MAX_REGRESS="${EAL_BENCH_MAX_REGRESS:-0.10}"
BENCH_MAX_OVERHEAD="${EAL_BENCH_MAX_OVERHEAD:-0.02}"
# Benches whose BENCH_*.json is baselined under bench/baselines/.
BENCH_GATE="bench_engines bench_a31_stack_alloc bench_live_deaddata bench_spec"

configure_flags() {
  case "$1" in
  release) echo "-DCMAKE_BUILD_TYPE=Release -DEAL_WERROR=ON" ;;
  asan) echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DEAL_WERROR=ON -DEAL_ASAN=ON" ;;
  ubsan) echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DEAL_WERROR=ON -DEAL_UBSAN=ON" ;;
  portable) echo "-DCMAKE_BUILD_TYPE=Release -DEAL_WERROR=ON -DEAL_COMPUTED_GOTO=OFF" ;;
  tsan) echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DEAL_WERROR=ON -DEAL_TSAN=ON" ;;
  *)
    echo "ci.sh: unknown configuration '$1' (expected release|asan|ubsan|portable|tsan)" >&2
    exit 2
    ;;
  esac
}

run_config() {
  local name="$1"
  local dir="$REPO/build-ci-$name"
  echo "=== [$name] configure"
  # shellcheck disable=SC2046
  cmake -B "$dir" -S "$REPO" $(configure_flags "$name")
  echo "=== [$name] build"
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] tier-1 ctest"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" -LE tier2)
  if [ "$name" = asan ]; then
    smoke "eal explain" explain_smoke "$dir"
    smoke "eal check --oracle --live-oracle, both engines," check_smoke "$dir"
    smoke "eal live" live_smoke "$dir"
    smoke "eal run --live-oracle, both engines," live_oracle_smoke "$dir"
    smoke "eal spec + forced deopt, both engines," spec_smoke "$dir"
    smoke "eal run --record/--trace + timeline, both engines," record_smoke "$dir"
    record_dump_smoke "$dir"
  fi
  if [ "$name" = release ]; then
    echo "=== [$name] fuzz smoke ($FUZZ_SEEDS fresh seeds)"
    (cd "$dir" && EAL_FUZZ_SEEDS="$FUZZ_SEEDS" \
        ./tests/property_tests --gtest_filter='Fuzz/*')
    bench_gate "$dir"
  fi
  echo "=== [$name] OK"
}

# One ASan smoke over the shipped examples: announces TITLE, then runs
# STEP DIR EXAMPLE NAME [FLAGS...] once per examples/nml program, NAME
# being its file name without .nml and FLAGS what it needs to compile
# (stats.nml uses the standard prelude). Every step validates the JSON
# documents it writes with tools/check_json.py.
smoke() {
  local title="$1" step="$2" dir="$3" example name
  echo "=== [asan] $title over examples/nml (+ schema check)"
  for example in "$REPO"/examples/nml/*.nml; do
    name="$(basename "$example" .nml)"
    case "$name" in
    stats) "$step" "$dir" "$example" "$name" --stdlib ;;
    *) "$step" "$dir" "$example" "$name" ;;
    esac
  done
}

# Why-provenance smoke: run `eal explain` over every shipped example
# under ASan -- the blame-chain builder walks the whole final program and
# dereferences fact ids recorded by three different analyses, so this is
# where a stale reference or classifier/linter drift surfaces. Each run
# also round-trips --explain-json through the schema checker
# (docs/EXPLAIN.md).
explain_smoke() {
  local dir="$1" example="$2" json="$1/explain-$3.json"
  shift 3
  "$dir/tools/eal" explain "$example" "$@" --explain-json="$json" >/dev/null
  python3 "$CHECK_JSON" "$json"
}

# Escape-oracle smoke: `eal check --oracle --live-oracle` over every
# shipped example under ASan on both engines, each run round-tripping
# --check-json through the eal-check-v1 schema checker
# (docs/CHECKING.md). Here one escape analyzer, kept in the optimizer's
# result, serves the planner, the site classifier and the oracle's claim
# table, so a reference that outlives what it points into surfaces here;
# on the VM, so does a stale value among the activations it reports.
check_smoke() {
  local dir="$1" example="$2" name="$3" engine json
  shift 3
  for engine in "" --vm; do
    json="$dir/check-$name$engine.json"
    # shellcheck disable=SC2086
    "$dir/tools/eal" check "$example" "$@" $engine --oracle --live-oracle \
        --check-json="$json" >/dev/null
    python3 "$CHECK_JSON" "$json"
  done
}

# Heap-liveness smoke: `eal live` over every shipped example, each run
# round-tripping --live-json through the eal-live-v1 schema checker
# (docs/LIVENESS.md). Dead-data lints are warnings, so a finding does
# not fail the smoke -- a schema drift or an analysis crash does.
live_smoke() {
  local dir="$1" example="$2" json="$1/live-$3.json"
  shift 3
  "$dir/tools/eal" live "$example" "$@" --live-json="$json" >/dev/null
  python3 "$CHECK_JSON" "$json"
}

# Liveness-oracle smoke: run every shipped example under ASan with the
# dynamic liveness oracle on both engines. Both feed the same per-cell
# event channel (docs/INTERNALS.md), so a refuted dead-site claim or a
# touch reported through a stale cell fails here on either engine. Each
# run also exports the liveness report the oracle checked, through the
# schema checker.
live_oracle_smoke() {
  local dir="$1" example="$2" name="$3" engine json
  shift 3
  for engine in "" --vm; do
    json="$dir/live-oracle-$name$engine.json"
    # shellcheck disable=SC2086
    "$dir/tools/eal" run "$example" "$@" $engine --live-oracle \
        --live-json="$json" >/dev/null
    python3 "$CHECK_JSON" "$json"
  done
}

# Speculative-tier smoke: run every shipped example under ASan on both
# engines, each profiling its own pre-run, with speculation on AND a
# forced deopt, arena frees validated — the deopt path migrates live
# cells mid-run, so this is where a dangling arena link or a double
# free would surface. Each `eal spec` run also
# round-trips --spec-json through the eal-spec-v1 schema checker
# (docs/SPECULATION.md). Examples that plan no speculation still
# exercise the planner's pre-run and export an empty plan.
spec_smoke() {
  local dir="$1" example="$2" name="$3" engine json
  shift 3
  for engine in "" --vm; do
    json="$dir/spec-$name$engine.json"
    # shellcheck disable=SC2086
    "$dir/tools/eal" run "$example" "$@" $engine --spec \
        --spec-inject-deopt=all --validate >/dev/null
    # shellcheck disable=SC2086
    "$dir/tools/eal" spec "$example" "$@" $engine --spec-json="$json" \
        >/dev/null
    python3 "$CHECK_JSON" "$json"
  done
}

# Flight-recorder smoke: stream every shipped example, on both engines
# and in both formats, into an eal-rec-v1 recording under ASan, with
# its Chrome trace written alongside (emit writes each event to both
# files as the run produces it, on the big stack, so ASan watches the
# NDJSON, binary and trace writers). Each recording round-trips through
# the schema checker and is replayed with `eal timeline`, which exits 1
# if the replayed counters fail to reconcile with the run's own stats
# (docs/RECORDER.md); each trace must parse as JSON with its "B" and
# "E" events balanced.
record_smoke() {
  local dir="$1" example="$2" name="$3" engine format rec trace
  shift 3
  for engine in "" --vm; do
    for format in --record --record-binary; do
      rec="$dir/record-$name$engine$format.rec"
      trace="$dir/record-$name$engine$format.trace.json"
      # shellcheck disable=SC2086
      "$dir/tools/eal" run "$example" "$@" $engine "$format=$rec" \
          --trace="$trace" >/dev/null
      python3 "$CHECK_JSON" "$rec"
      "$dir/tools/eal" timeline "$rec" >/dev/null
      python3 -c 'import json, sys
open_ = 0
for e in json.load(open(sys.argv[1])):
    open_ += {"B": 1, "E": -1}.get(e["ph"], 0)
    assert open_ >= 0, "E before its B"
assert open_ == 0, "unclosed B"' "$trace"
    done
  done
}

# A speculative run on each engine must reconcile too: the recording
# holds the measured run only, not the spec pre-run. Then force the
# crash path twice: an injected spec deopt and a parse error, each with
# --rec-dump armed, must leave a loadable flight recording whose trigger
# names the failure.
record_dump_smoke() {
  local dir="$1" engine rec
  echo "=== [asan] eal run --spec --record (+ schema + timeline, both engines)"
  for engine in "" --vm; do
    rec="$dir/record-spec-cold${engine}.rec"
    # shellcheck disable=SC2086
    "$dir/tools/eal" run "$REPO/examples/nml/spec_cold.nml" --spec $engine \
        --record="$rec" >/dev/null
    python3 "$CHECK_JSON" "$rec"
    "$dir/tools/eal" timeline "$rec" >/dev/null
  done
  echo "=== [asan] forced deopt dump (--spec-inject-deopt + --rec-dump)"
  rec="$dir/record-deopt-dump.rec"
  rm -f "$rec"
  "$dir/tools/eal" run "$REPO/examples/nml/spec_cold.nml" --spec \
      --spec-inject-deopt=all --rec-dump="$rec" >/dev/null
  python3 "$CHECK_JSON" "$rec"
  "$dir/tools/eal" timeline "$rec" | grep -q "trigger=spec-deopt"
  echo "=== [asan] forced failure dump (--rec-dump)"
  rec="$dir/record-failure-dump.rec"
  rm -f "$rec"
  printf 'let x = in\n' >"$dir/record-bad-input.nml"
  if "$dir/tools/eal" run "$dir/record-bad-input.nml" --rec-dump="$rec" \
      >/dev/null 2>&1; then
    echo "ci.sh: parse-error run unexpectedly succeeded" >&2
    exit 1
  fi
  if [ ! -s "$rec" ]; then
    echo "ci.sh: failed run left no flight dump at $rec" >&2
    exit 1
  fi
  python3 "$CHECK_JSON" "$rec"
  "$dir/tools/eal" timeline "$rec" | grep -q "trigger=run-failed"
}

# Perf-regression gate: run each baselined bench's sweep (benchmark
# timing loops filtered out) into bench-archive/, then diff the fresh
# BENCH_*.json against bench/baselines/. Storage counters are
# deterministic, so any drift from the baseline fails the gate. The
# archive directory is kept so CI can upload it as the run's perf
# artifact.
bench_gate() {
  local dir="$1"
  local archive="$dir/bench-archive"
  echo "=== [release] bench archive + regression gate (threshold +$(
      awk "BEGIN { printf \"%g\", $BENCH_MAX_REGRESS * 100 }")%)"
  rm -rf "$archive"
  mkdir -p "$archive"
  for bench in $BENCH_GATE; do
    (cd "$archive" && "$dir/bench/$bench" --benchmark_filter=__none__)
  done
  for bench in $BENCH_GATE; do
    local json="BENCH_${bench#bench_}.json"
    if [ ! -f "$REPO/bench/baselines/$json" ]; then
      echo "ci.sh: missing baseline bench/baselines/$json" >&2
      exit 1
    fi
    python3 "$REPO/tools/bench_diff.py" \
        "$REPO/bench/baselines/$json" "$archive/$json" \
        --max-time-regress "$BENCH_MAX_REGRESS"
  done
  # Recorder overhead budget: bench_engines self-measures execute time
  # with the lite event tier on vs off (obs_overhead/* records); the
  # always-on recorder must stay within EAL_BENCH_MAX_OVERHEAD.
  echo "=== [release] recorder overhead gate (budget +$(
      awk "BEGIN { printf \"%g\", $BENCH_MAX_OVERHEAD * 100 }")%)"
  python3 "$REPO/tools/bench_diff.py" \
      --overhead "$archive/BENCH_engines.json" \
      --max-overhead "$BENCH_MAX_OVERHEAD"
}

if [ "$#" -gt 0 ]; then
  for config in "$@"; do
    run_config "$config"
  done
else
  for config in release asan ubsan portable tsan; do
    run_config "$config"
  done
fi
echo "=== all configurations passed"
