#!/usr/bin/env python3
"""Validate eal's JSON documents against their eal-*-v1 schemas.

eal publishes its results as seven versioned documents.  Each carries
its schema's name in a top-level "schema" field (a recording carries it
in its header line), and this checker picks the schema from that tag:

  eal-bench-v1    BENCH_<name>.json, one per bench run: wall times and
                  storage counters (docs/OBSERVABILITY.md)
  eal-check-v1    --check-json: lint findings, optimization-blocked
                  explanations and oracle counters (docs/CHECKING.md)
  eal-explain-v1  --explain-json: the why-provenance graph and one blame
                  chain per allocation site (docs/EXPLAIN.md)
  eal-live-v1     --live-json: per-function demand summaries and the
                  joined demand of every site (docs/LIVENESS.md)
  eal-profile-v1  --profile-json: every static site's planned storage
                  class joined with what each engine observed
                  (docs/PROFILING.md)
  eal-rec-v1      --record, --record-binary, --rec-dump: a flight
                  recording, NDJSON or binary (docs/RECORDER.md)
  eal-spec-v1     --spec-json: the speculation plan and its runtime
                  outcome (docs/SPECULATION.md)

This module is the executable definition of all seven.  A schema is a
shape -- the kind of every field, walked by one checker -- plus the
cross-field invariants a shape cannot state.  ctest runs it over real
CLI and bench output, so a writer that drifts from its schema fails the
test suite, not a downstream consumer.

Usage:
  check_json.py FILE [FILE...]      validate files
  check_json.py --run BIN [BIN...]  run each bench binary (benchmarks
                                    filtered out, sweep only) in a
                                    temporary dir, then validate every
                                    BENCH_*.json the batch wrote --
                                    every JSON-writing bench belongs on
                                    this list, so a report that drifts
                                    from the schema cannot hide behind
                                    a hard-coded file list
  check_json.py --self-test         exercise the checker itself

Each error prints as "FAIL FILE: LABEL: MESSAGE", LABEL being the path
of the offending value inside the document (records[0].counters.n).

Exit status: 0 if everything validates, 1 otherwise.

Only the Python standard library is used.
"""

import json
import os
import re
import struct
import subprocess
import sys
import tempfile


def is_count(value):
    """A non-negative integer (bools are ints in Python; they don't count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Report:
    """The errors found in one file, and what the field kinds consult:
    the whole document (for id references) and the positions of the
    arrays being walked (for fields that must equal their index)."""

    def __init__(self, path):
        self.path = path
        self.doc = {}
        self.positions = []
        self.errors = []

    def fail(self, label, message):
        if label:
            self.errors.append("%s: %s: %s" % (self.path, label, message))
        else:
            self.errors.append("%s: %s" % (self.path, message))


# --- Field kinds --------------------------------------------------------
#
# A kind is a function (report, label, value) that reports what is wrong
# with one present value.  obj() reports absent keys itself, unless the
# key is marked optional with a trailing "?".

def kind(test, what):
    def check(report, label, value):
        if not test(value):
            report.fail(label, "is %r, expected %s" % (value, what))
    return check


COUNT = kind(is_count, "a non-negative integer")
POSITIVE = kind(lambda v: is_count(v) and v >= 1, "a positive integer")
BOOL = kind(lambda v: isinstance(v, bool), "a boolean")
TRUE = kind(lambda v: v is True, "true")
STRING = kind(lambda v: isinstance(v, str), "a string")
TEXT = kind(lambda v: isinstance(v, str) and v != "", "a non-empty string")
SECONDS = kind(lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and v >= 0, "a non-negative number")
CODE_RE = re.compile(r"^EAL-[A-Z]\d{3}$")
CODE = kind(lambda v: isinstance(v, str) and CODE_RE.match(v) is not None,
            "an EAL-Xnnn code")
ANY = kind(lambda v: True, "anything")


def enum(*values):
    return kind(lambda v: v in values, "one of %s" % list(values))


def nullable(item):
    def check(report, label, value):
        if value is not None:
            item(report, label, value)
    return check


def POSITION(report, label, value):
    """A field that must equal its enclosing array index."""
    index = report.positions[-1]
    if value != index:
        report.fail(label, "is %r, expected the array index %d"
                    % (value, index))


def ref(table):
    """A count that indexes the document's top-level array ``table``."""
    def check(report, label, value):
        rows = report.doc.get(table)
        size = len(rows) if isinstance(rows, list) else 0
        if not (is_count(value) and value < size):
            report.fail(label, "%r is not a valid id into the %d-entry '%s' "
                        "array" % (value, size, table))
    return check


def array(item, nonempty=False, unique=None):
    """An array of ``item``; with ``unique``, no two object elements
    share a (hashable) value of that key."""
    def check(report, label, value):
        if not isinstance(value, list):
            report.fail(label, "is not an array")
            return
        if nonempty and not value:
            report.fail(label, "is empty")
        seen = set()
        for i, element in enumerate(value):
            report.positions.append(i)
            item(report, "%s[%d]" % (label, i), element)
            report.positions.pop()
            key = element.get(unique) if unique and isinstance(element, dict) \
                else None
            if not isinstance(key, (str, int)):
                continue
            if key in seen:
                report.fail("%s[%d].%s" % (label, i, unique),
                            "duplicate %s %r" % (unique, key))
            seen.add(key)
    return check


def field_label(label, key):
    return "%s.%s" % (label, key) if label else key


def obj(fields):
    """An object with (at least) ``fields``: key -> kind.  A key written
    with a trailing "?" may be absent."""
    def check(report, label, value):
        if not isinstance(value, dict):
            report.fail(label, "is not an object")
            return
        for key, item in fields.items():
            name = key.rstrip("?")
            if name in value:
                item(report, field_label(label, name), value[name])
            elif name == key:
                report.fail(field_label(label, name), "is missing")
    return check


def map_of(item):
    """An object whose every value is an ``item`` (keys are free)."""
    def check(report, label, value):
        if not isinstance(value, dict):
            report.fail(label, "is not an object")
            return
        for key, element in value.items():
            item(report, field_label(label, key), element)
    return check


def dicts(value):
    """(index, element) for every object element of ``value`` when it is
    an array; the invariants use it to skip what the shape rejected."""
    if not isinstance(value, list):
        return []
    return [(i, v) for i, v in enumerate(value) if isinstance(v, dict)]


# --- eal-bench-v1 -------------------------------------------------------

BENCH_SCHEMA = "eal-bench-v1"

# Counters every record must carry: the RuntimeStats fields serialized by
# RuntimeStats::toJson() (src/runtime/RuntimeStats.h).
# total_cells_allocated is derived and must equal the sum of the three
# allocation classes.
CELL_CLASSES = ("heap_cells_allocated", "stack_cells_allocated",
                "region_cells_allocated")
BENCH_COUNTERS = CELL_CLASSES + ("total_cells_allocated", "dcons_reuses",
                                 "gc_runs", "cells_marked", "cells_swept")

BENCH = obj({
    "bench": TEXT,
    "records": array(obj({
        "name": TEXT,
        "n": COUNT,
        "wall_seconds": SECONDS,
        "counters": obj({key: COUNT for key in BENCH_COUNTERS}),
    }), nonempty=True, unique="name"),
})


def bench_invariants(report, doc):
    for i, record in dicts(doc.get("records")):
        counters = record.get("counters")
        if not isinstance(counters, dict):
            continue
        total = counters.get("total_cells_allocated")
        parts = sum(counters[k] for k in CELL_CLASSES
                    if isinstance(counters.get(k), int))
        if isinstance(total, int) and total != parts:
            report.fail("records[%d].counters" % i,
                        "total_cells_allocated=%d but heap+stack+region=%d"
                        % (total, parts))


# --- eal-check-v1 -------------------------------------------------------

ORACLE_COUNTERS = ("activations", "claims_checked", "cells_tracked",
                   "heap_cells_escaped", "heap_cells_unescaped",
                   "imprecise_claims", "alias_exemptions")

VIOLATION_INTS = ("arg_index", "protected_spines", "spine_level",
                  "call_line", "call_col", "alloc_site", "alloc_line",
                  "alloc_col")

CHECK = obj({
    "command": TEXT,
    "file": TEXT,
    "success": BOOL,
    "findings": array(obj({
        "code": CODE,
        "severity": enum("note", "warning", "error"),
        "line": COUNT,
        "col": COUNT,
        "message": TEXT,
        # Optional why-provenance: fact ids into the matching
        # --explain-json graph (docs/EXPLAIN.md).  Only emitted when a
        # recorder ran.
        "blame?": array(COUNT),
    })),
    # Present only when --oracle ran.
    "oracle?": obj({
        **{key: COUNT for key in ORACLE_COUNTERS},
        "violations": array(obj({
            **{key: TEXT for key in ("kind", "function", "message")},
            **{key: COUNT for key in VIOLATION_INTS}})),
    }),
})


# --- eal-explain-v1 -----------------------------------------------------

FACT_KINDS = ("binding", "apply", "query", "sharing", "decision", "finding",
              "liveness", "speculation")
STORAGES = ("heap", "stack", "region")
FACT = ref("facts")

EXPLAIN = obj({
    "command": TEXT,
    "file": TEXT,
    "success": BOOL,
    "graph": obj({key: COUNT for key in ("facts", "edges", "raises",
                                         "max_depth")}),
    "facts": array(obj({
        "id": POSITION,
        "kind": enum(*FACT_KINDS),
        "label": TEXT,
        # equation/result may legitimately be empty (e.g. an anchor
        # fact), but must be strings.
        "equation": STRING,
        "result": STRING,
        "line": COUNT,
        "col": COUNT,
        "deps": array(FACT),
        "raises": array(obj({"round": COUNT, "value": TEXT,
                             "deps": array(FACT)})),
    })),
    "chains": array(obj({
        "site": obj({
            "id": COUNT,
            # Every chain is anchored at a real source position (1-based).
            "line": POSITIVE,
            "col": POSITIVE,
            "prim": enum("cons", "mkpair"),
            "storage": enum(*STORAGES),
            "code?": nullable(CODE),
        }),
        "steps": array(obj({
            "title": TEXT,
            "detail": TEXT,
            "line": COUNT,
            "col": COUNT,
            "fact?": nullable(FACT),
        }), nonempty=True),
        "facts": array(FACT),
    })),
})


def explain_invariants(report, doc):
    graph = doc.get("graph")
    facts = doc.get("facts")
    if isinstance(graph, dict) and is_count(graph.get("facts")):
        size = len(facts) if isinstance(facts, list) else 0
        if graph["facts"] != size:
            report.fail("graph.facts", "is %d but the facts array has %d "
                        "entries" % (graph["facts"], size))
    for i, fact in dicts(facts):
        deps = fact.get("deps")
        for j, dep in enumerate(deps if isinstance(deps, list) else []):
            if is_count(dep) and dep == i:
                report.fail("facts[%d].deps[%d]" % (i, j), "is a self-edge")
        # The fixpoint only ever raises monotonically, round by round.
        last_round = -1
        for j, event in dicts(fact.get("raises")):
            if is_count(event.get("round")):
                if event["round"] < last_round:
                    report.fail("facts[%d].raises[%d].round" % (i, j),
                                "rounds are not non-decreasing")
                last_round = event["round"]
    # Only sites left on the GC heap carry a finding code.
    for i, chain in dicts(doc.get("chains")):
        site = chain.get("site")
        if not isinstance(site, dict):
            continue
        storage, code = site.get("storage"), site.get("code")
        if storage == "heap" and code is None:
            report.fail("chains[%d].site" % i,
                        "a heap site must carry a finding code")
        if storage in ("stack", "region") and code is not None:
            report.fail("chains[%d].site" % i, "a %s site must not carry a "
                        "finding code, got %r" % (storage, code))


# --- eal-live-v1 --------------------------------------------------------
#
# Demand encoding: "depth" is the spine depth, -1 meaning infinity;
# "car"/"snd" are the element- and second-field flags; "rendered" is the
# human form ("dead", "<inf,car>", "<2,car,snd>").  A normalized bottom
# demand has depth 0 and both flags clear; "dead" on a site must agree
# with that.

DEMAND = {
    "depth": kind(lambda v: isinstance(v, int) and not isinstance(v, bool)
                  and v >= -1, "an integer >= -1"),
    "car": BOOL,
    "snd": BOOL,
    "rendered": TEXT,
}

LIVE = obj({
    "command": TEXT,
    "file": TEXT,
    "success": BOOL,
    "summary": obj({
        **{key: COUNT for key in ("rounds", "summaries", "functions",
                                  "sites", "dead_sites")},
        "converged": BOOL,
    }),
    "functions": array(obj({
        "name": TEXT,
        "line": COUNT,
        "col": COUNT,
        "arity": COUNT,
        "worst": BOOL,
        "params": array(obj({**DEMAND, "index": POSITION, "name": TEXT})),
    })),
    "sites": array(obj({
        **DEMAND,
        "id": COUNT,
        "op": enum("cons", "pair", "dcons"),
        # Context "" is the program body; otherwise a binding name.
        "context": STRING,
        # Every site is anchored at a real source position (1-based).
        "line": POSITIVE,
        "col": POSITIVE,
        "dead": BOOL,
        "unreached": BOOL,
    }), unique="id"),
})


def demand_is_bottom(report, label, demand):
    """Checks a demand's normalization; returns True when it is bottom."""
    depth = demand.get("depth")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < -1:
        depth = 0
    car, snd, rendered = (demand.get(k) for k in ("car", "snd", "rendered"))
    bottom = depth == 0 and not car and not snd
    # A normalized bottom demand renders as "dead" and vice versa.
    if isinstance(rendered, str) and rendered \
            and bottom != (rendered == "dead"):
        report.fail(label, "rendered %r disagrees with depth=%r car=%r "
                    "snd=%r" % (rendered, demand.get("depth"), car, snd))
    # Depth 0 clears the field flags (normalization invariant).
    if depth == 0 and (car or snd):
        report.fail(label, "depth 0 with a field flag set (demands must be "
                    "normalized)")
    return bottom


def live_invariants(report, doc):
    summary = doc.get("summary")
    summary = summary if isinstance(summary, dict) else {}
    functions, sites = doc.get("functions"), doc.get("sites")
    for key, rows in (("functions", functions), ("sites", sites)):
        size = len(rows) if isinstance(rows, list) else 0
        if is_count(summary.get(key)) and summary[key] != size:
            report.fail("summary.%s" % key, "is %d but the %s array has %d "
                        "entries" % (summary[key], key, size))
    for i, fn in dicts(functions):
        label = "functions[%d]" % i
        params = fn.get("params")
        if not isinstance(params, list):
            continue
        if is_count(fn.get("arity")) and len(params) != fn["arity"]:
            report.fail(label, "'arity' is %d but 'params' has %d entries"
                        % (fn["arity"], len(params)))
        for j, param in dicts(params):
            plabel = "%s.params[%d]" % (label, j)
            demand_is_bottom(report, plabel, param)
            # A worst-cased function reports every parameter at top.
            if fn.get("worst") is True and (param.get("depth") != -1
                                            or not param.get("car")
                                            or not param.get("snd")):
                report.fail(plabel, "a worst-cased function must report "
                            "demand top on every parameter")
    dead_sites = 0
    for i, site in dicts(sites):
        label = "sites[%d]" % i
        bottom = demand_is_bottom(report, label, site)
        dead = site.get("dead")
        if isinstance(dead, bool) and dead != bottom:
            report.fail(label, "'dead' is %r but the demand is %s"
                        % (dead, "bottom" if bottom else "not bottom"))
        # Unreached code allocates nothing; its demand can only be dead.
        if site.get("unreached") is True and dead is False:
            report.fail(label, "'unreached' site is not dead")
        dead_sites += dead is True
    if is_count(summary.get("dead_sites")) \
            and summary["dead_sites"] != dead_sites:
        report.fail("summary.dead_sites", "is %d but %d site(s) are marked "
                    "dead" % (summary["dead_sites"], dead_sites))


# --- eal-profile-v1 -----------------------------------------------------

PLANNED = ("heap", "stack", "region", "reuse")

# Per-engine counters every site entry must carry.
SITE_COUNTERS = ("allocs_heap", "allocs_stack", "allocs_region",
                 "deaths_heap", "deaths_stack", "deaths_region",
                 "reuses", "overwritten", "first_touches", "dead_cells")

PROFILE = obj({
    "program": TEXT,
    "success": BOOL,
    "engines": array(obj({
        "name": TEXT,
        "success": BOOL,
        "steps?": COUNT,
        "stack_nodes?": COUNT,
        "stack_total_weight?": COUNT,
        "frames?": nullable(array(obj({"name": STRING, "calls": COUNT,
                                       "self": COUNT}))),
        "opcodes?": nullable(map_of(COUNT)),
    }), nonempty=True, unique="name"),
    "sites": array(obj({
        "id": COUNT,
        # Every site must resolve to a real source position (file:line:col
        # with 1-based line/col); clones made by the reuse transform
        # inherit the original's position.
        "line": POSITIVE,
        "col": POSITIVE,
        "prim": enum("cons", "pair", "dcons"),
        "prim_value": BOOL,
        "planned": enum(*PLANNED),
        "why": TEXT,
        # Why-provenance anchor: a fact id into the matching
        # --explain-json graph, or null when no recorder ran / no fact
        # backs the verdict (docs/EXPLAIN.md).
        "provenance_ref": nullable(COUNT),
        "engines": map_of(obj({
            **{key: COUNT for key in SITE_COUNTERS},
            # null when the site never recorded a lifetime.
            "lifetime": nullable(obj({
                **{key: COUNT for key in ("count", "sum", "min", "max")},
                "buckets": array(COUNT),
            })),
        })),
    }), unique="id"),
    "reuse_versions": array(ANY),
})


def profile_invariants(report, doc):
    engines = dicts(doc.get("engines"))
    for i, engine in engines:
        # An engine with opcode counters is a VM run: the dispatch total
        # must reconcile with the reported step count.
        opcodes = engine.get("opcodes")
        if isinstance(opcodes, dict) and is_count(engine.get("steps")):
            dispatched = sum(v for v in opcodes.values() if is_count(v))
            if dispatched != engine["steps"]:
                report.fail("engines[%d]" % i, "opcode counters sum to %d "
                            "but steps is %d" % (dispatched, engine["steps"]))
    names = {e["name"] for _, e in engines
             if isinstance(e.get("name"), str) and e["name"]}
    for i, site in dicts(doc.get("sites")):
        label = "sites[%d]" % i
        if site.get("prim") == "dcons" and site.get("planned") in PLANNED \
                and site["planned"] != "reuse":
            report.fail(label, "a dcons site must be planned 'reuse', got "
                        "%r" % site["planned"])
        site_engines = site.get("engines")
        if not isinstance(site_engines, dict):
            continue
        for name, counters in site_engines.items():
            elabel = "%s.engines.%s" % (label, name)
            if name not in names:
                report.fail(elabel, "engine not in the top-level engines "
                            "list")
            hist = counters.get("lifetime") \
                if isinstance(counters, dict) else None
            if not isinstance(hist, dict):
                continue
            buckets = hist.get("buckets")
            if isinstance(buckets, list) and all(map(is_count, buckets)) \
                    and is_count(hist.get("count")) \
                    and sum(buckets) != hist["count"]:
                report.fail(elabel + ".lifetime", "buckets sum to %d but "
                            "count is %d" % (sum(buckets), hist["count"]))


# --- eal-spec-v1 --------------------------------------------------------
#
# Invariants beyond shape: speculation indices are the array positions;
# a speculation's cold_entries can never exceed its hot_entries (the
# planner prunes the cold side); every directive carries at least one
# site; the runtime block, when present, is internally consistent
# (deopted implies a cause and exactly one deopt, injected_deopts never
# exceeds deopts, and cells can only migrate on a deopt).

RUNTIME_COUNTERS = ("arenas_opened", "guard_hits", "deopts",
                    "injected_deopts", "cells_migrated")

SPEC = obj({
    "program": TEXT,
    "speculations": array(obj({
        "index": POSITION,
        "if": obj({"id": COUNT, "line": COUNT, "col": COUNT}),
        "guard": obj({"branch_id": COUNT, "line": COUNT, "col": COUNT}),
        "profile": obj({"hot_entries": COUNT, "cold_entries": COUNT}),
        # A speculation with nothing to protect would be a free deopt
        # risk; the planner drops it.
        "directives": array(obj({
            "call": TEXT,
            "call_id": COUNT,
            "arg": COUNT,
            "protected_spines": COUNT,
            # An empty directive protects nothing; the planner never
            # emits one.
            "sites": array(obj({"id": COUNT,
                                "class": enum("stack", "region")}),
                           nonempty=True, unique="id"),
        }), nonempty=True),
    })),
    # null for a plan that was not executed.
    "runtime": nullable(obj({
        **{key: COUNT for key in RUNTIME_COUNTERS},
        "deopted": BOOL,
        "cause?": nullable(enum("guard", "injected")),
    })),
})


def spec_invariants(report, doc):
    for i, spec in dicts(doc.get("speculations")):
        # The planner prunes the *cold* side: the kept branch must have
        # run strictly more often than the pruned one.
        profile = spec.get("profile")
        if isinstance(profile, dict):
            hot, cold = profile.get("hot_entries"), profile.get("cold_entries")
            if is_count(hot) and is_count(cold) and cold >= hot:
                report.fail("speculations[%d].profile" % i, "cold_entries "
                            "(%d) is not below hot_entries (%d)" % (cold, hot))
    runtime = doc.get("runtime")
    if not isinstance(runtime, dict):
        return
    deopted, cause = runtime.get("deopted"), runtime.get("cause")
    deopts, injected, migrated = (runtime.get(k) for k in (
        "deopts", "injected_deopts", "cells_migrated"))
    if deopted is True:
        if cause is None:
            report.fail("runtime", "deopted without a cause")
        # The protocol is global: the first failure disarms everything,
        # so a run deopts exactly once.
        if is_count(deopts) and deopts != 1:
            report.fail("runtime", "deopted with 'deopts' = %r, expected 1 "
                        "(the protocol is global)" % deopts)
    if deopted is False:
        if cause is not None:
            report.fail("runtime", "a cause without a deopt")
        if is_count(deopts) and deopts != 0:
            report.fail("runtime", "'deopts' is %r on a held run" % deopts)
        if is_count(migrated) and migrated != 0:
            report.fail("runtime", "cells migrated without a deopt")
    if is_count(deopts) and is_count(injected) and injected > deopts:
        report.fail("runtime", "'injected_deopts' (%d) exceeds 'deopts' (%d)"
                    % (injected, deopts))
    if cause == "injected" and is_count(injected) and injected == 0:
        report.fail("runtime", "cause 'injected' with zero injected_deopts")


# --- eal-rec-v1 ---------------------------------------------------------
#
# One file: a JSON header line, the event records (NDJSON lines, or raw
# 32-byte binary records closed by a sentinel), and a JSON footer line
# carrying the interned name table, the final counters and the drop
# count.  read_recording() checks the framing and hands the walker
# {"header", "events", "footer"}.  Invariants beyond shape: every
# event's kind is an index into the header's kind table; the reserved
# names "<none>"/"<overflow>" hold ids 0/1; a flight dump names its
# trigger and its final event is the dump.trigger mark carrying that
# name; a binary stream is a whole number of records closed by the
# 0xFFFF sentinel.

REC_SCHEMA = "eal-rec-v1"
EVENT_KEYS = ("t", "tid", "k", "a", "b", "c")

# struct RecEvent (src/obs/RecEvent.h): u64 time, u64 a, u64 b, u32 c,
# u16 kind, u16 tid -- 32 bytes, little-endian on every supported host.
RECORD = struct.Struct("<QQQIHH")
SENTINEL_KIND = 0xFFFF

REC = obj({
    "header": obj({
        "format": enum("ndjson", "binary"),
        "mode": enum("stream", "flight"),
        "command": TEXT,
        "detail": BOOL,
        "epoch_us": COUNT,
        "kinds": array(TEXT, nonempty=True),
    }),
    "events": array(obj({key: COUNT for key in EVENT_KEYS})),
    "footer": obj({
        "footer": TRUE,
        "names": array(STRING),
        "counters": map_of(COUNT),
        "dropped": COUNT,
        "trigger": STRING,
    }),
})


def parse_line(report, label, line):
    try:
        value = json.loads(line)
    except ValueError as e:
        report.fail(label, "is not valid JSON: %s" % e)
        return None
    if not isinstance(value, dict):
        report.fail(label, "is not an object")
        return None
    return value


def read_recording(report, header, body):
    """Splits a recording's body into events and footer, reporting
    framing errors; returns the document the walker checks."""
    events, footer, rest = [], None, []
    if header.get("format") == "binary":
        offset, closed = 0, False
        while offset + RECORD.size <= len(body):
            t, a, b, c, k, tid = RECORD.unpack_from(body, offset)
            offset += RECORD.size
            if k == SENTINEL_KIND:
                closed = True
                break
            events.append({"t": t, "tid": tid, "k": k, "a": a, "b": b,
                           "c": c})
        if not closed:
            report.fail(None, "binary body is not closed by the 0xFFFF "
                        "sentinel record")
        else:
            tail = body[offset:].decode("utf-8", "replace").splitlines()
            if tail:
                footer = parse_line(report, "footer line", tail[0])
                rest = tail[1:]
    else:
        lines = body.decode("utf-8", "replace").splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            value = parse_line(report, "line %d" % (i + 2), line)
            if value is None:
                continue
            if "footer" in value:
                footer, rest = value, lines[i + 1:]
                break
            events.append(value)
    if any(line.strip() for line in rest):
        report.fail(None, "content after the footer line")
    doc = {"schema": REC_SCHEMA, "header": header, "events": events}
    if footer is not None:
        doc["footer"] = footer
    return doc


def rec_invariants(report, doc):
    kinds = doc["header"].get("kinds")
    if isinstance(kinds, list) and kinds \
            and all(isinstance(k, str) and k for k in kinds):
        if kinds[0] != "none":
            report.fail("header.kinds[0]", "is %r, expected 'none'"
                        % kinds[0])
        if len(set(kinds)) != len(kinds):
            report.fail("header.kinds", "duplicate kind names")
    else:
        kinds = []
    events = []
    for i, event in enumerate(doc["events"]):
        if not all(is_count(event.get(k)) for k in EVENT_KEYS):
            continue
        events.append(event)
        if kinds and event["k"] >= len(kinds):
            report.fail("events[%d].k" % i, "kind %d is outside the "
                        "header's %d-entry kind table"
                        % (event["k"], len(kinds)))
    footer = doc.get("footer")
    if footer is None:
        return
    names = footer.get("names")
    if not isinstance(names, list) \
            or not all(isinstance(n, str) for n in names):
        names = []
    if names[:1] != ["<none>"] or (len(names) > 1
                                   and names[1] != "<overflow>"):
        report.fail("footer.names", "names[0..1] are %r, expected "
                    "['<none>', '<overflow>']" % names[:2])
    trigger = footer.get("trigger")
    if doc["header"].get("mode") != "flight" or not isinstance(trigger, str):
        return
    # A dump exists because something fired it: the footer names the
    # trigger and the final event is the dump.trigger mark carrying the
    # same interned name.
    if not trigger:
        report.fail("footer.trigger", "flight dump without a trigger")
    if not events:
        report.fail("events", "flight dump holds no events")
        return
    last = events[-1]
    if kinds and last["k"] < len(kinds) \
            and kinds[last["k"]] != "dump.trigger":
        report.fail("events", "flight dump's final event is %r, expected "
                    "'dump.trigger'" % kinds[last["k"]])
    elif trigger and last["a"] < len(names) and names[last["a"]] != trigger:
        report.fail("events", "dump.trigger mark names %r but the footer "
                    "trigger is %r" % (names[last["a"]], trigger))


# --- The checker --------------------------------------------------------

SCHEMAS = {
    BENCH_SCHEMA: (BENCH, bench_invariants),
    "eal-check-v1": (CHECK, None),
    "eal-explain-v1": (EXPLAIN, explain_invariants),
    "eal-live-v1": (LIVE, live_invariants),
    "eal-profile-v1": (PROFILE, profile_invariants),
    REC_SCHEMA: (REC, rec_invariants),
    "eal-spec-v1": (SPEC, spec_invariants),
}


def load(report, blob):
    """The document in ``blob``, or None after reporting why there is
    none.  A recording is recognised by its header line's schema tag."""
    head = blob.split(b"\n", 1)[0]
    try:
        header = json.loads(head.decode("utf-8", "replace"))
    except ValueError:
        header = None
    if isinstance(header, dict) and header.get("schema") == REC_SCHEMA:
        return read_recording(report, header, blob[len(head) + 1:])
    try:
        doc = json.loads(blob.decode("utf-8"))
    except ValueError as e:
        report.fail(None, "not valid JSON: %s" % e)
        return None
    if not isinstance(doc, dict):
        report.fail(None, "top level is not an object")
        return None
    return doc


def check_file(path):
    """Validates one file against the schema it names; returns a list of
    error strings."""
    report = Report(path)
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        report.fail(None, "cannot read: %s" % e)
        return report.errors
    doc = load(report, blob)
    if doc is None:
        return report.errors
    schema = doc.get("schema")
    if not isinstance(schema, str) or schema not in SCHEMAS:
        report.fail("schema", "is %r, expected one of %s"
                    % (schema, sorted(SCHEMAS)))
        return report.errors
    shape, invariants = SCHEMAS[schema]
    report.doc = doc
    shape(report, "", doc)
    if invariants:
        invariants(report, doc)
    return report.errors


def validate(paths):
    """Validates each path; prints one line per file."""
    ok = True
    for path in paths:
        errors = check_file(path)
        if errors:
            ok = False
            for e in errors:
                print("FAIL %s" % e)
        else:
            print("ok   %s" % path)
    return 0 if ok else 1


def run_and_validate(binaries):
    binaries = [os.path.abspath(b) for b in binaries]
    ok = True
    with tempfile.TemporaryDirectory(prefix="eal-bench-json-") as workdir:
        for binary in binaries:
            # The sweep (which writes the JSON) always runs; the filter
            # keeps the google-benchmark timing loops out of the test's
            # budget.
            before = set(os.listdir(workdir))
            proc = subprocess.run(
                [binary, "--benchmark_filter=__none__"],
                cwd=workdir, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT)
            sys.stdout.buffer.write(proc.stdout)
            if proc.returncode != 0:
                print("FAIL %s: exit status %d" % (binary, proc.returncode))
                ok = False
            elif not any(
                    f.startswith("BENCH_") and f.endswith(".json")
                    for f in set(os.listdir(workdir)) - before):
                print("FAIL %s: wrote no BENCH_*.json" % binary)
                ok = False
        reports = sorted(
            os.path.join(workdir, f) for f in os.listdir(workdir)
            if f.startswith("BENCH_") and f.endswith(".json"))
        if reports and validate(reports) != 0:
            ok = False
    return 0 if ok else 1


# --- Self-test ----------------------------------------------------------
#
# Each schema's cases patch a known-good document and state whether the
# result is valid; the harness asserts the checker agrees, and that a
# truncated copy of each schema's first document is rejected.  A patch
# maps slash paths into the document ("records/0/n") to new values;
# DROP removes the key instead.

DROP = object()


def patched(good, patch):
    """A deep copy of ``good`` with ``patch`` applied -- the self-test's
    way of producing each invalid (or differently-valid) variant without
    disturbing the original."""
    doc = json.loads(json.dumps(good))
    for path, value in patch.items():
        *steps, key = path.split("/")
        target = doc
        for step in steps:
            target = target[int(step) if isinstance(target, list) else step]
        key = int(key) if isinstance(target, list) else key
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return doc


BENCH_GOOD = {
    "schema": BENCH_SCHEMA,
    "bench": "demo",
    "records": [{
        "name": "demo/n=4/base",
        "n": 4,
        "wall_seconds": 0.25,
        "counters": {
            "heap_cells_allocated": 10,
            "stack_cells_allocated": 4,
            "region_cells_allocated": 0,
            "total_cells_allocated": 14,
            "dcons_reuses": 0,
            "gc_runs": 1,
            "cells_marked": 3,
            "cells_swept": 7,
        },
    }],
}

BENCH_CASES = [
    ("valid document", True, {}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("empty records", False, {"records": []}),
    ("negative wall time", False, {"records/0/wall_seconds": -1}),
    ("missing counter", False, {"records/0/counters/gc_runs": DROP}),
    ("inconsistent total", False,
     {"records/0/counters/total_cells_allocated": 999}),
    ("boolean n", False, {"records/0/n": True}),
    ("duplicate names", False, {"records": BENCH_GOOD["records"] * 2}),
]

CHECK_GOOD = {
    "schema": "eal-check-v1",
    "command": "check",
    "file": "<input>",
    "success": True,
    "findings": [{
        "code": "EAL-L001",
        "severity": "warning",
        "line": 2,
        "col": 9,
        "message": "unused let binding 'y'",
    }],
    "oracle": {
        "activations": 59,
        "claims_checked": 16,
        "cells_tracked": 40,
        "heap_cells_escaped": 36,
        "heap_cells_unescaped": 4,
        "imprecise_claims": 0,
        "alias_exemptions": 0,
        "violations": [{
            "kind": "injected-claim",
            "function": "append",
            "arg_index": 1,
            "protected_spines": 1,
            "spine_level": 1,
            "call_line": 3,
            "call_col": 4,
            "alloc_site": 17,
            "alloc_line": 2,
            "alloc_col": 20,
            "message": "soundness violation",
        }],
    },
}

CHECK_CASES = [
    ("valid document", True, {}),
    ("no oracle section", True, {"oracle": DROP}),
    ("finding with blame chain", True, {"findings/0/blame": [230, 221]}),
    ("dead-data finding (EAL-D001)", True, {
        "findings/0/code": "EAL-D001",
        "findings/0/message": "dead data: no field of any cell allocated "
                              "here is ever read (demand dead)"}),
    ("dead-spine note (EAL-D002)", True, {
        "findings/0/code": "EAL-D002", "findings/0/severity": "note",
        "findings/0/message": "dead spine suffix: only the first 2 spine "
                              "cell(s) are ever demanded"}),
    ("liveness-blocked note (EAL-D004)", True, {
        "findings/0/code": "EAL-D004", "findings/0/severity": "note",
        "findings/0/message": "liveness-blocked optimization"}),
    ("blame not an array", False, {"findings/0/blame": 7}),
    ("negative blame entry", False, {"findings/0/blame": [-1]}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("missing success", False, {"success": DROP}),
    ("bad finding code", False, {"findings/0/code": "L001"}),
    ("bad severity", False, {"findings/0/severity": "fatal"}),
    ("negative line", False, {"findings/0/line": -1}),
    ("boolean col", False, {"findings/0/col": True}),
    ("empty message", False, {"findings/0/message": ""}),
    ("missing oracle counter", False, {"oracle/claims_checked": DROP}),
    ("violations not a list", False, {"oracle/violations": {}}),
    ("violation missing kind", False, {"oracle/violations/0/kind": DROP}),
]

EXPLAIN_GOOD = {
    "schema": "eal-explain-v1",
    "command": "explain",
    "file": "<input>",
    "success": True,
    "graph": {"facts": 3, "edges": 2, "raises": 1, "max_depth": 2},
    "chains": [{
        "site": {"id": 17, "line": 11, "col": 23, "prim": "cons",
                 "storage": "heap", "code": "EAL-O001"},
        "steps": [
            {"title": "allocation site", "detail": "cons cell",
             "line": 11, "col": 23, "fact": None},
            {"title": "escape verdict",
             "detail": "L(append, 2) = <1,1> [§4.2]",
             "line": 3, "col": 1, "fact": 2},
            {"title": "escaping return",
             "detail": "the result carries 1 spine back to the caller",
             "line": 3, "col": 1, "fact": 0},
        ],
        "facts": [2, 0],
    }],
    "facts": [
        {"id": 0, "kind": "binding", "label": "append",
         "equation": "§4.1 letrec", "line": 3, "col": 1,
         "result": "<0,0>+fn(1)", "deps": [],
         "raises": [{"round": 1, "value": "<0,0>+fn(1)", "deps": []}]},
        {"id": 1, "kind": "apply", "label": "append @ call",
         "equation": "§4.1 apply", "line": 5, "col": 4,
         "result": "<1,1>", "deps": [0], "raises": []},
        {"id": 2, "kind": "query", "label": "L(append, 2)",
         "equation": "§4.2", "line": 3, "col": 1,
         "result": "<1,1>", "deps": [0], "raises": []},
    ],
}

EXPLAIN_CASES = [
    ("valid document", True, {}),
    ("stack site with null code", True,
     {"chains/0/site/storage": "stack", "chains/0/site/code": None}),
    ("empty chains", True, {"chains": []}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("missing success", False, {"success": DROP}),
    ("missing graph counter", False, {"graph/edges": DROP}),
    ("graph fact count disagrees with facts array", False,
     {"graph/facts": 99}),
    ("liveness fact kind accepted", True, {
        "facts/2/kind": "liveness", "facts/2/label": "site 17 demand",
        "facts/2/equation": "docs/LIVENESS.md join",
        "facts/2/result": "<inf,car>"}),
    ("unknown fact kind", False, {"facts/0/kind": "lemma"}),
    ("fact id not the array index", False, {"facts/1/id": 7}),
    ("dangling dep", False, {"facts/1/deps": [42]}),
    ("self-edge dep", False, {"facts/1/deps": [1]}),
    ("raise rounds decrease", False, {"facts/0/raises": [
        {"round": 2, "value": "a", "deps": []},
        {"round": 1, "value": "b", "deps": []}]}),
    ("heap site without finding code", False, {"chains/0/site/code": None}),
    ("bad finding code", False, {"chains/0/site/code": "O001"}),
    ("unknown storage class", False,
     {"chains/0/site/storage": "tls", "chains/0/site/code": None}),
    ("chain without steps", False, {"chains/0/steps": []}),
    ("step fact dangling", False, {"chains/0/steps/1/fact": 42}),
    ("chain fact list dangling", False, {"chains/0/facts": [42]}),
]

LIVE_GOOD = {
    "schema": "eal-live-v1",
    "command": "live",
    "file": "<input>",
    "success": True,
    "summary": {"rounds": 4, "summaries": 6, "functions": 2,
                "sites": 3, "dead_sites": 1, "converged": True},
    "functions": [
        {"name": "append", "line": 3, "col": 1, "arity": 2,
         "worst": False, "params": [
             {"index": 0, "name": "x", "depth": -1, "car": True,
              "snd": False, "rendered": "<inf,car>"},
             {"index": 1, "name": "y", "depth": -1, "car": True,
              "snd": True, "rendered": "<inf,car,snd>"}]},
        {"name": "id", "line": 6, "col": 1, "arity": 1,
         "worst": True, "params": [
             {"index": 0, "name": "v", "depth": -1, "car": True,
              "snd": True, "rendered": "<inf,car,snd>"}]},
    ],
    "sites": [
        {"id": 17, "op": "cons", "context": "append", "line": 4, "col": 6,
         "depth": -1, "car": True, "snd": True,
         "rendered": "<inf,car,snd>", "dead": False, "unreached": False},
        {"id": 29, "op": "pair", "context": "", "line": 8, "col": 2,
         "depth": 1, "car": False, "snd": True, "rendered": "<1,snd>",
         "dead": False, "unreached": False},
        {"id": 35, "op": "cons", "context": "", "line": 9, "col": 2,
         "depth": 0, "car": False, "snd": False, "rendered": "dead",
         "dead": True, "unreached": False},
    ],
}

LIVE_CASES = [
    ("valid document", True, {}),
    ("empty functions and sites", True, {
        "functions": [], "sites": [], "summary/functions": 0,
        "summary/sites": 0, "summary/dead_sites": 0}),
    ("unreached dead site", True, {"sites/2/unreached": True}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("missing success", False, {"success": DROP}),
    ("missing summary counter", False, {"summary/rounds": DROP}),
    ("non-boolean converged", False, {"summary/converged": 1}),
    ("function count disagrees with array", False,
     {"summary/functions": 5}),
    ("site count disagrees with array", False, {"summary/sites": 5}),
    ("dead count disagrees with dead flags", False,
     {"summary/dead_sites": 0}),
    ("param index not the array position", False,
     {"functions/0/params/1/index": 0}),
    ("arity disagrees with params", False, {"functions/0/arity": 3}),
    ("worst-cased function with a non-top param", False, {
        "functions/1/params/0/depth": 2,
        "functions/1/params/0/rendered": "<2,car,snd>"}),
    ("depth below -1", False, {"sites/0/depth": -2}),
    ("depth 0 with car set", False,
     {"sites/2/car": True, "sites/2/rendered": "<0,car>"}),
    ("rendered dead on a live demand", False, {"sites/0/rendered": "dead"}),
    ("dead flag disagrees with demand", False, {"sites/2/dead": False}),
    ("unreached site that is not dead", False, {"sites/0/unreached": True}),
    ("unknown op", False, {"sites/0/op": "vector"}),
    ("duplicate site ids", False, {"sites/1/id": 17}),
    ("zero site line", False, {"sites/0/line": 0}),
    ("missing unreached flag", False, {"sites/0/unreached": DROP}),
]

PROFILE_GOOD = {
    "schema": "eal-profile-v1",
    "program": "demo.nml",
    "success": True,
    "sites": [{
        "id": 7, "line": 3, "col": 12, "prim": "cons",
        "prim_value": False, "planned": "stack",
        "why": "builds the top spine of argument 1 of 'ps'",
        "provenance_ref": 42,
        "engines": {
            "tree": {
                "allocs_heap": 0, "allocs_stack": 6, "allocs_region": 0,
                "deaths_heap": 0, "deaths_stack": 6, "deaths_region": 0,
                "reuses": 0, "overwritten": 0,
                "first_touches": 4, "dead_cells": 2,
                "lifetime": {"count": 6, "sum": 60, "min": 4, "max": 20,
                             "mean": 10.0, "buckets": [0, 0, 0, 2, 2, 2]},
            },
            "vm": {
                "allocs_heap": 0, "allocs_stack": 6, "allocs_region": 0,
                "deaths_heap": 0, "deaths_stack": 6, "deaths_region": 0,
                "reuses": 0, "overwritten": 0,
                "first_touches": 6, "dead_cells": 0, "lifetime": None,
            },
        },
    }],
    "reuse_versions": [{"original": "ps", "primed": "ps'",
                        "param_index": 0, "dcons_sites": 2}],
    "engines": [
        {"name": "tree", "success": True, "steps": 800,
         "stack_nodes": 10, "stack_total_weight": 800,
         "frames": [{"name": "ps", "calls": 7, "self": 500}]},
        {"name": "vm", "success": True, "steps": 5,
         "stack_nodes": 4, "stack_total_weight": 5,
         "frames": [], "opcodes": {"Call": 2, "Return": 3},
         "protos": [{"name": "<entry>", "instrs": 5}]},
    ],
}

PROFILE_CASES = [
    ("valid document", True, {}),
    ("null provenance_ref", True, {"sites/0/provenance_ref": None}),
    ("missing provenance_ref", False, {"sites/0/provenance_ref": DROP}),
    ("string provenance_ref", False, {"sites/0/provenance_ref": "42"}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("empty engines", False, {"engines": []}),
    ("zero line number", False, {"sites/0/line": 0}),
    ("unknown planned class", False, {"sites/0/planned": "tls"}),
    ("dcons site not planned reuse", False, {"sites/0/prim": "dcons"}),
    ("empty why", False, {"sites/0/why": ""}),
    ("missing site counter", False,
     {"sites/0/engines/tree/reuses": DROP}),
    ("lifetime buckets disagree with count", False,
     {"sites/0/engines/tree/lifetime/count": 5}),
    ("site engine absent from top level", False,
     {"sites/0/engines/jit": PROFILE_GOOD["sites"][0]["engines"]["vm"]}),
    ("opcode counters disagree with steps", False, {"engines/1/steps": 99}),
    ("duplicate site ids", False, {"sites": PROFILE_GOOD["sites"] * 2}),
    ("negative overwritten", False,
     {"sites/0/engines/vm/overwritten": -1}),
    ("missing dead_cells counter", False,
     {"sites/0/engines/vm/dead_cells": DROP}),
    ("missing reuse_versions", False, {"reuse_versions": DROP}),
]

SPEC_GOOD = {
    "schema": "eal-spec-v1",
    "program": "examples/nml/spec_cold.nml",
    "speculations": [
        {"index": 0,
         "if": {"id": 103, "line": 19, "col": 14},
         "guard": {"branch_id": 101, "line": 19, "col": 24},
         "profile": {"hot_entries": 1, "cold_entries": 0},
         "directives": [
             {"call": "keep", "call_id": 112, "arg": 1,
              "protected_spines": 1,
              "sites": [{"id": 68, "class": "region"}]}]},
    ],
    "runtime": {"deopted": False, "cause": None, "arenas_opened": 1,
                "guard_hits": 0, "deopts": 0, "injected_deopts": 0,
                "cells_migrated": 0},
}

SPEC_CASES = [
    ("valid held run", True, {}),
    ("valid injected deopt", True, {"runtime": {
        "deopted": True, "cause": "injected", "arenas_opened": 1,
        "guard_hits": 0, "deopts": 1, "injected_deopts": 1,
        "cells_migrated": 48}}),
    ("valid natural guard failure", True, {"runtime": {
        "deopted": True, "cause": "guard", "arenas_opened": 1,
        "guard_hits": 1, "deopts": 1, "injected_deopts": 0,
        "cells_migrated": 7}}),
    ("valid unexecuted plan", True, {"runtime": None}),
    ("valid empty plan", True, {"speculations": []}),
    ("wrong schema tag", False, {"schema": "v0"}),
    ("empty program name", False, {"program": ""}),
    ("missing runtime key", False, {"runtime": DROP}),
    ("speculation index not the array position", False,
     {"speculations/0/index": 3}),
    ("cold entries not below hot", False,
     {"speculations/0/profile/cold_entries": 1}),
    ("speculation without directives", False,
     {"speculations/0/directives": []}),
    ("directive without sites", False,
     {"speculations/0/directives/0/sites": []}),
    ("duplicate directive site ids", False,
     {"speculations/0/directives/0/sites": [{"id": 68, "class": "region"},
                                            {"id": 68, "class": "stack"}]}),
    ("unknown site class", False,
     {"speculations/0/directives/0/sites/0/class": "static"}),
    ("deopted without a cause", False,
     {"runtime/deopted": True, "runtime/deopts": 1}),
    ("held run with a cause", False, {"runtime/cause": "guard"}),
    ("held run with migrated cells", False, {"runtime/cells_migrated": 5}),
    ("two deopts under the global protocol", False, {
        "runtime/deopted": True, "runtime/cause": "guard",
        "runtime/deopts": 2, "runtime/guard_hits": 2}),
    ("injected deopts exceed deopts", False, {"runtime/injected_deopts": 1}),
    ("injected cause with zero injected deopts", False, {
        "runtime/deopted": True, "runtime/cause": "injected",
        "runtime/deopts": 1, "runtime/cells_migrated": 3}),
    ("negative counter", False, {"runtime/guard_hits": -1}),
]

REC_KINDS = ["none", "run.begin", "run.end", "phase.begin", "phase.end",
             "gc.begin", "gc.end", "heap.grow", "arena.open", "arena.free",
             "cell.birth", "cell.death", "cell.dcons", "cell.touch",
             "cell.migrate", "spec.deopt", "oracle.refuted", "live.refuted",
             "dump.trigger"]


def rec_header(**overrides):
    header = {"schema": REC_SCHEMA, "format": "ndjson", "mode": "stream",
              "command": "run", "detail": True, "epoch_us": 12,
              "kinds": REC_KINDS}
    header.update(overrides)
    return header


def rec_footer(**overrides):
    footer = {"footer": True, "names": ["<none>", "<overflow>", "run",
                                        "spec-deopt"],
              "counters": {"gc_runs": 1}, "dropped": 0, "trigger": ""}
    footer.update(overrides)
    return footer


def ndjson_doc(header, events, footer):
    lines = [json.dumps(header)]
    lines += [json.dumps(e) for e in events]
    if footer is not None:
        lines.append(json.dumps(footer))
    return ("\n".join(lines) + "\n").encode()


def binary_doc(header, events, footer, sentinel=True):
    out = [json.dumps(header).encode() + b"\n"]
    for e in events:
        out.append(RECORD.pack(e["t"], e["a"], e["b"], e["c"], e["k"],
                               e["tid"]))
    if sentinel:
        out.append(RECORD.pack(0, 0, 0, 0, SENTINEL_KIND, 0))
    if footer is not None:
        out.append(json.dumps(footer).encode() + b"\n")
    return b"".join(out)


RUN_BEGIN = {"t": 15, "tid": 0, "k": 1, "a": 2, "b": 0, "c": 0}
GC_BEGIN = {"t": 20, "tid": 0, "k": 5, "a": 7, "b": 64, "c": 0}
RUN_END = {"t": 31, "tid": 0, "k": 2, "a": 1, "b": 0, "c": 0}
MARK = {"t": 40, "tid": 0, "k": 18, "a": 3, "b": 0, "c": 0}
STREAM = [RUN_BEGIN, GC_BEGIN, RUN_END]

# Recordings are not JSON documents, so their cases are whole files.
REC_CASES = [
    ("valid ndjson stream", True,
     ndjson_doc(rec_header(), STREAM, rec_footer())),
    ("valid flight dump", True,
     ndjson_doc(rec_header(mode="flight"), STREAM + [MARK],
                rec_footer(trigger="spec-deopt"))),
    ("valid binary stream", True,
     binary_doc(rec_header(format="binary"), STREAM, rec_footer())),
    ("valid empty stream", True, ndjson_doc(rec_header(), [], rec_footer())),
    ("wrong schema tag", False,
     ndjson_doc(rec_header(schema="v0"), [], rec_footer())),
    ("unknown format", False,
     ndjson_doc(rec_header(format="xml"), [], rec_footer())),
    ("unknown mode", False,
     ndjson_doc(rec_header(mode="replay"), [], rec_footer())),
    ("kinds[0] not 'none'", False,
     ndjson_doc(rec_header(kinds=["run.begin"] + REC_KINDS[1:]), [],
                rec_footer())),
    ("duplicate kind names", False,
     ndjson_doc(rec_header(kinds=REC_KINDS + ["run.begin"]), [],
                rec_footer())),
    ("event kind outside the table", False,
     ndjson_doc(rec_header(), [dict(RUN_BEGIN, k=len(REC_KINDS))],
                rec_footer())),
    ("event with a negative payload", False,
     ndjson_doc(rec_header(), [dict(RUN_BEGIN, a=-1)], rec_footer())),
    ("missing footer", False, ndjson_doc(rec_header(), STREAM, None)),
    ("content after the footer", False,
     ndjson_doc(rec_header(), STREAM, rec_footer()) + b"{\"t\":99}\n"),
    ("reserved names wrong", False,
     ndjson_doc(rec_header(), [], rec_footer(names=["run"]))),
    ("negative counter", False,
     ndjson_doc(rec_header(), [], rec_footer(counters={"gc_runs": -1}))),
    ("flight dump without a trigger", False,
     ndjson_doc(rec_header(mode="flight"), STREAM + [MARK], rec_footer())),
    ("flight dump not ending in dump.trigger", False,
     ndjson_doc(rec_header(mode="flight"), STREAM,
                rec_footer(trigger="spec-deopt"))),
    ("dump.trigger mark naming a different trigger", False,
     ndjson_doc(rec_header(mode="flight"), STREAM + [dict(MARK, a=2)],
                rec_footer(trigger="spec-deopt"))),
    ("binary body without the sentinel", False,
     binary_doc(rec_header(format="binary"), STREAM, rec_footer(),
                sentinel=False)),
    ("binary footer missing", False,
     binary_doc(rec_header(format="binary"), STREAM, None)),
]


def self_test_cases():
    """(schema, label, file contents, expect_ok) for every case."""
    for schema, good, cases in [
            (BENCH_SCHEMA, BENCH_GOOD, BENCH_CASES),
            ("eal-check-v1", CHECK_GOOD, CHECK_CASES),
            ("eal-explain-v1", EXPLAIN_GOOD, EXPLAIN_CASES),
            ("eal-live-v1", LIVE_GOOD, LIVE_CASES),
            ("eal-profile-v1", PROFILE_GOOD, PROFILE_CASES),
            (REC_SCHEMA, None, REC_CASES),
            ("eal-spec-v1", SPEC_GOOD, SPEC_CASES)]:
        for label, expect_ok, patch in cases:
            blob = patch if good is None \
                else json.dumps(patched(good, patch)).encode()
            yield schema, label, blob, expect_ok


def self_test():
    failures = 0
    malformed = {}
    with tempfile.TemporaryDirectory(prefix="eal-json-selftest-") as tmp:
        path = os.path.join(tmp, "case.json")

        def expect(label, blob, expect_ok):
            with open(path, "wb") as f:
                f.write(blob)
            got_ok = not check_file(path)
            print("%s self-test: %s (valid=%s, expected %s)"
                  % ("ok  " if got_ok == expect_ok else "FAIL", label,
                     got_ok, expect_ok))
            return got_ok != expect_ok

        for schema, label, blob, expect_ok in self_test_cases():
            failures += expect("%s: %s" % (schema, label), blob, expect_ok)
            malformed.setdefault(schema, blob[:len(blob) // 2])
        # Malformed input is rejected whatever schema it started as.
        for schema, blob in malformed.items():
            failures += expect("%s: truncated document" % schema, blob, False)
        failures += expect("malformed JSON", b"{ not json", False)
    return 0 if failures == 0 else 1


def main(argv):
    if argv[1:2] == ["--self-test"]:
        return self_test()
    if argv[1:2] == ["--run"] and len(argv) > 2:
        return run_and_validate(argv[2:])
    if len(argv) < 2 or argv[1] == "--run":
        print(__doc__)
        return 2
    return validate(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
