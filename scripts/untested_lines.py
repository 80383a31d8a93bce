#!/usr/bin/env python3
"""List the lines of src/ntforge that no test executes.

Run from anywhere; extra arguments go to pytest:

    python3 scripts/untested_lines.py [pytest args]

Runs the tier-1 suite (tests/) in this process under sys.settrace, with the
standard library only (no coverage package), and prints, per module, the
lines that hold bytecode but never ran, as ranges, then their total.  A test
that runs ntforge in a subprocess (the console-script test, the golden-report
byte check) is not traced, so a line only such a test reaches is listed.
Tracing slows the suite about threefold (close to a minute), which is why
this is not part of tier-1.  Exits with pytest's exit code.
"""

import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ntforge"


def executable(path):
    """The line numbers of a module that hold bytecode, at any nesting."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def ranges(lines):
    """'3, 7-9' for the sorted line numbers 3, 7, 8, 9."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    import pytest

    # as the tier-1 command does, for this process and the tests' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ran = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in ran else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, seen in ran.items():
        missed = executable(pathlib.Path(name)) - seen
        total += len(missed)
        if missed:
            print(f"{pathlib.Path(name).name}: {ranges(missed)}")
    print(f"{total} lines no test executes")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
