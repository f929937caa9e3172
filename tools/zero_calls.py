#!/usr/bin/env python3
"""Lists the src/ functions that a coverage run never called.

Build with coverage and run the tests first, then point this at the build
tree (from the repository root):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-O1 --coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" \\
        -DNODETR_BUILD_BENCH=OFF -DNODETR_BUILD_EXAMPLES=OFF
    cmake --build build-cov -j
    ctest --test-dir build-cov
    python3 tools/zero_calls.py build-cov

It runs `gcov --json-format` on every object's notes file (.gcno) in the build
tree, so an object that no test ran still counts with zero calls. A function
or line compiled into several translation units (a header inline, a template)
is one entry, keyed by (source file, start line) or (source file, line), and
counts as called or run when any unit ran it.

It prints every function in src/ of three or more lines that has zero calls,
and the line coverage of src/. The exit code is 1 when such a function is
not on the keep-list (tools/zero_calls_keep.txt), else 0. The keep-list
names a function by its full demangled name as gcov prints it, parameters
included, so each overload is kept on its own line, with a reason after `#`. An entry that no longer matches an uncalled
function is reported but does not fail the check, so deleting a kept
function needs no edit here.
"""
import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_LINES = 3
BATCH = 64  # notes files per gcov process
KEEP_LIST = os.path.join(HERE, "zero_calls_keep.txt")


def load_keep_list():
    keep = set()
    with open(KEEP_LIST, encoding="utf-8") as f:
        for raw in f:
            name = raw.split("#", 1)[0].strip()
            if name:
                keep.add(name)
    return keep


def gcov_reports(build_dir):
    """Yields one parsed gcov JSON report per notes file under build_dir."""
    notes = sorted(os.path.join(d, f) for d, _, files in os.walk(build_dir)
                   for f in files if f.endswith(".gcno"))
    if not notes:
        raise SystemExit(f"zero_calls: no .gcno files under {build_dir}; "
                         "was it built with --coverage?")
    for i in range(0, len(notes), BATCH):
        out = subprocess.run(["gcov", "--json-format", "--stdout", *notes[i:i + BATCH]],
                             cwd=build_dir, check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def merge(reports, src_root):
    """Function calls by (file, start line) and line counts by (file, line),
    summed over translation units, for source files under src_root."""
    calls = defaultdict(int)
    names = {}
    lines = defaultdict(int)
    for report in reports:
        cwd = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_root + os.sep):
                continue
            rel = os.path.relpath(path, ROOT)
            for fn in entry["functions"]:
                if fn["end_line"] - fn["start_line"] + 1 < MIN_LINES:
                    continue
                key = (rel, fn["start_line"])
                calls[key] += fn["execution_count"]
                names.setdefault(key, fn["demangled_name"])
            for ln in entry["lines"]:
                lines[(rel, ln["line_number"])] += ln["count"]
    return calls, names, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dir", help="a --coverage build tree after its tests ran")
    args = parser.parse_args()

    keep = load_keep_list()
    calls, names, lines = merge(gcov_reports(os.path.abspath(args.build_dir)),
                                os.path.realpath(os.path.join(ROOT, "src")))
    uncalled = sorted(key for key, count in calls.items() if count == 0)
    kept = [key for key in uncalled if names[key] in keep]
    flagged = [key for key in uncalled if names[key] not in keep]
    stale = sorted(keep - {names[key] for key in kept})

    run = sum(1 for count in lines.values() if count > 0)
    total = len(lines)
    print(f"src/ lines run: {run} of {total} ({100.0 * run / max(total, 1):.1f}%)")
    print(f"src/ functions of {MIN_LINES}+ lines: {len(calls)}, never called: {len(uncalled)}")
    for rel, line in kept:
        print(f"  kept     {rel}:{line} {names[(rel, line)]}")
    for rel, line in flagged:
        print(f"  UNCALLED {rel}:{line} {names[(rel, line)]}")
    for name in stale:
        print(f"  note: keep-list entry {name} is not an uncalled function")
    if flagged:
        print(f"zero_calls: {len(flagged)} uncalled function(s) not on the keep-list: call "
              "each from a test, delete it, or keep-list it with a reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
