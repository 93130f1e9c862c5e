"""List the lines of src/mutkit that the tier-1 suite never runs.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``, so worker threads count too), records every
line executed in a file under src/mutkit, and prints each executable
line that never ran, then the totals.  A line is executable when a code
object compiled from the file maps an instruction to it.  Child
processes are not traced, so a line that only a subprocess runs (such
as ``cli.py``'s ``sys.exit(main())``) is listed as never run.

Usage, from the repository root::

    python tests/linereach.py [pytest args...]

With no arguments it runs the whole tier-1 suite.  Tracing makes the
run about 1.6 times slower, which is why this is a script and not a
test.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mutkit"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction compiled from ``path`` maps to."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts
                       if isinstance(const, CodeType))
    return lines


class NoDeadline:
    """A pytest plugin: tracing slows every hypothesis example, and a
    deadline would turn that into failures.  It loads the profile once
    pytest has registered hypothesis's own plugin."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("linereach", deadline=None)
        settings.load_profile("linereach")


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer; return its exit code and the lines
    run in each file of the package."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                             plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = trace_suite(argv)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{missed} of {total} executable lines never ran "
          f"({total - missed} ran, pytest exit {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
