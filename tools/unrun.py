"""Lines of `src/prodbase` that the test suite never runs.

    python tools/unrun.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on `tests/`, with `-q`) under a
`sys.settrace` line tracer that follows only code from `src/prodbase`, then
prints each executable line of that package which never ran, as
`path:line: source`, and their count.  A line is executable when a code object
compiled from the file maps an instruction to it.  Only this process and the
threads it starts are traced: code that runs only in a subprocess, such as the
CLI's `__main__` block or a test that spawns `prodbase`, reads as never run.
Standard library only.  Exits 1 when pytest fails, else 0.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prodbase"


def _executable(path: Path) -> set[int]:
    """Line numbers that some instruction of a code object compiled from `path` maps to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # a def line, or where a generator resumes
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(_executable(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} executable lines never ran")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
