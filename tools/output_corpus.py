#!/usr/bin/env python3
"""Record every user-visible output of an eal binary, to compare two builds.

A change that must keep eal's outputs byte-identical is checked by
writing one corpus with the old binary, one with the new, and comparing
them.  A corpus holds one record per combination of

  example   every examples/nml/*.nml (with --stdlib when the file's
            leading comment asks for it)
  engine    the tree-walker (no flag) and the VM (--vm)
  flags     default, --no-reuse, --whole-object, --no-stack --no-region
  command   run --validate; check --oracle --live-oracle, as text and
            with --check-json; spec; spec --spec-inject-deopt=all;
            profile with --profile-json and --folded; disasm; optimize;
            explain

Each record is one text file: the command line, the exit code, stdout,
stderr and every file the command exported.  An exported file of up to
1 MiB is recorded verbatim, a larger one by its size and SHA-256 (the
folded stacks of gc_stress run to about 300 MB).  Each invocation runs
in a fresh temporary directory on a copy of the example, so no record
names a path of the machine it was made on.  No timing flag
(--time-phases, --trace, --stats-json) is passed: those outputs carry
wall times.

Usage:
  output_corpus.py EAL OUT_DIR            write the corpus of binary EAL
  output_corpus.py --compare DIR_A DIR_B  byte-compare two corpora
  output_corpus.py --self-check EAL       write the corpus twice and fail
                                          on any byte difference or any
                                          non-zero exit of EAL

Option: --jobs N (default 4).  Exit status is 0 on success, 1 on a difference or
a non-zero exit (--self-check), 2 on a usage error.  Standard library
only.
"""

import argparse
import concurrent.futures
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples", "nml")

# Exported files above this size are recorded as their digest.
VERBATIM_LIMIT = 1 << 20

ENGINES = [("tree", []), ("vm", ["--vm"])]

FLAG_SETS = [
    ("default", []),
    ("no-reuse", ["--no-reuse"]),
    ("whole-object", ["--whole-object"]),
    ("no-stack-region", ["--no-stack", "--no-region"]),
]

# (record name, subcommand, flags, files the command exports)
COMMANDS = [
    ("run", "run", ["--validate"], []),
    ("check", "check", ["--oracle", "--live-oracle"], []),
    ("check-json", "check", ["--oracle", "--live-oracle",
                             "--check-json=check.json"], ["check.json"]),
    ("spec", "spec", [], []),
    ("spec-deopt", "spec", ["--spec-inject-deopt=all"], []),
    ("profile", "profile", ["--profile-json=profile.json",
                            "--folded=profile.folded"],
     ["profile.json", "profile.folded"]),
    ("disasm", "disasm", [], []),
    ("optimize", "optimize", [], []),
    ("explain", "explain", [], []),
]


def wants_stdlib(path):
    """True when the example's leading comment block mentions --stdlib."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("--"):
                return False
            if "--stdlib" in line:
                return True
    return False


def combinations():
    """Yields (record name, example path, eal arguments, exported files)."""
    for name in sorted(os.listdir(EXAMPLES)):
        if not name.endswith(".nml"):
            continue
        path = os.path.join(EXAMPLES, name)
        stdlib = ["--stdlib"] if wants_stdlib(path) else []
        stem = name[:-len(".nml")]
        for engine, engine_flags in ENGINES:
            for flag_set, flags in FLAG_SETS:
                for record, command, command_flags, files in COMMANDS:
                    args = ([command, name] + stdlib + engine_flags + flags +
                            command_flags)
                    yield (".".join([stem, engine, flag_set, record]) + ".txt",
                           path, args, files)


def exported_file(path):
    """The record of one exported file: its bytes, or its size and digest."""
    if not os.path.isfile(path):
        return b"(not written)\n"
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        if size <= VERBATIM_LIMIT:
            return f.read()
        digest = hashlib.sha256()
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return b"%d bytes, sha256 %s\n" % (size, digest.hexdigest().encode())


def run_one(eal, example, args, files):
    """Runs one invocation; returns (record text, exit code)."""
    with tempfile.TemporaryDirectory(prefix="eal-corpus-") as work:
        shutil.copy(example, os.path.join(work, os.path.basename(example)))
        done = subprocess.run([eal] + args, cwd=work, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        parts = [b"$ eal " + " ".join(args).encode() + b"\n",
                 b"exit: %d\n" % done.returncode,
                 b"--- stdout\n", done.stdout,
                 b"--- stderr\n", done.stderr]
        for exported in files:
            parts.append(b"--- file " + exported.encode() + b"\n")
            parts.append(exported_file(os.path.join(work, exported)))
        return b"".join(parts), done.returncode


def write_corpus(eal, out_dir, jobs):
    """Writes every record into out_dir; returns the failing record names."""
    os.makedirs(out_dir, exist_ok=True)
    failing = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(run_one, eal, example, args, files): record
                   for record, example, args, files in combinations()}
        for future in concurrent.futures.as_completed(futures):
            record = futures[future]
            text, code = future.result()
            with open(os.path.join(out_dir, record), "wb") as f:
                f.write(text)
            if code != 0:
                failing.append(record)
    return sorted(failing)


def compare(dir_a, dir_b):
    """Returns one message per record that differs or exists on one side."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    problems = ["only in %s: %s" % (dir_a, n) for n in sorted(names_a - names_b)]
    problems += ["only in %s: %s" % (dir_b, n) for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append("differs: " + name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    parser.add_argument("--self-check", metavar="EAL")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args()

    if args.compare:
        problems = compare(*args.compare)
        for p in problems:
            print(p)
        print("%d record(s) differ" % len(problems))
        return 1 if problems else 0

    if args.self_check:
        eal = os.path.abspath(args.self_check)
        with tempfile.TemporaryDirectory(prefix="eal-corpus-check-") as work:
            first, second = os.path.join(work, "a"), os.path.join(work, "b")
            failing = write_corpus(eal, first, args.jobs)
            write_corpus(eal, second, args.jobs)
            problems = ["non-zero exit: " + r for r in failing]
            problems += compare(first, second)
            count = len(os.listdir(first))
        for p in problems:
            print(p)
        print("%d record(s), %d problem(s)" % (count, len(problems)))
        return 1 if problems else 0

    if len(args.paths) != 2:
        parser.print_usage(sys.stderr)
        return 2
    eal, out_dir = os.path.abspath(args.paths[0]), args.paths[1]
    failing = write_corpus(eal, out_dir, args.jobs)
    print("%d record(s) in %s, %d with a non-zero exit" %
          (len(os.listdir(out_dir)), out_dir, len(failing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
