"""List the lines of `src/hspsim` that the test suite never runs.

    python tools/untested_lines.py [pytest arguments]

Runs pytest on `tests/` (or on the given arguments) in this process under
`sys.settrace` and prints each line of `src/hspsim` that compiles to code
but never executed, as `path:line: source`, then a count per module.  It
needs only the standard library and pytest, not a coverage package.  Code
that tests run in a subprocess is not traced, and the suite's own failures
do not change the listing.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hspsim"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in the module or in any code object in it
    (line 0 holds only the module's own set-up)."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines each package file executed."""
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}

    def package_file(filename: str) -> str | None:
        if filename not in ours:
            real = Path(os.path.realpath(filename))
            ours[filename] = str(real) if real.parent == PACKAGE else None
        return ours[filename]

    def trace(frame, event, arg):
        name = package_file(frame.f_code.co_filename)
        if name is None:
            return None
        lines = hits[name]

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    args = argv or ["-q", "--tb=no", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, hits = run_traced(args)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        counts[path.name] = len(missed)
    print(f"pytest exit status {status}; untested lines: {sum(counts.values())} ("
          + ", ".join(f"{name} {n}" for name, n in counts.items() if n) + ")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
