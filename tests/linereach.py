"""List the lines of src/mutkit that the tier-1 suite never runs.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``, so worker threads count too), records every
line executed in a file under src/mutkit, and prints each executable
line that never ran, then the totals.  A line is executable when a code
object compiled from the file maps an instruction to it.  Child
processes are not traced, so a line that only a subprocess runs is
listed as never run.

Usage, from the repository root::

    python tests/linereach.py [pytest args...]

With no arguments it runs the whole tier-1 suite and is a gate: it
exits 1 if the suite passed but some line never ran.  With arguments
it only lists, and the exit status is pytest's.  Either way, a test
that switches the tracer off (CPython drops it when the trace function
raises, as when a test exhausts the stack) stops the run: the script
names the test and exits 1, since no later line would be counted.
Tracing makes the run about 1.6 times slower, which is why this is a
script and not a test.
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


class TracerWatch:
    """A pytest plugin that stops the run after the first test at whose
    end ``tracer`` is no longer this thread's trace function."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.lost_in: str | None = None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        yield
        if sys.gettrace() is not self.tracer:
            self.lost_in = item.nodeid
            item.session.shouldstop = f"line tracer switched off in {item.nodeid}"


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]], str | None]:
    """Run pytest under a line tracer; return its exit code, the lines
    run in each file of the package, and the test that switched the
    tracer off, if one did."""
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

    watch = TracerWatch(on_call)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                             plugins=[NoDeadline(), watch])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran, watch.lost_in


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran, lost_in = trace_suite(argv)
    if lost_in is not None:
        print(f"the line tracer was switched off in {lost_in}; "
              "no later line was counted")
        return 1
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
    if status == 0 and missed and not argv:
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
