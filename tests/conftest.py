"""Shared pytest hooks: a per-criterion summary for the acceptance gate,
and a fixture counting the processes a test starts."""

import subprocess
import threading

import pytest

_ACCEPTANCE_PREFIX = "test_acceptance.py::test_criterion_"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion that ran."""
    results: dict[int, tuple[str, str]] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            marker = nodeid.find(_ACCEPTANCE_PREFIX)
            if marker < 0:
                continue
            name = nodeid[marker + len(_ACCEPTANCE_PREFIX):]
            number_text, _, slug = name.partition("_")
            try:
                number = int(number_text)
            except ValueError:
                continue
            status = "PASS" if outcome == "passed" else "FAIL"
            label = slug.replace("_", " ")
            if results.get(number, ("PASS", ""))[0] == "PASS":
                results[number] = (status, label)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        status, label = results[number]
        terminalreporter.write_line(f"criterion {number}: {status} - {label}")


@pytest.fixture
def process_count(monkeypatch):
    """The commands of every subprocess.run call, from any thread."""
    calls = []
    real_run = subprocess.run
    lock = threading.Lock()

    def counting_run(*args, **kwargs):
        with lock:
            calls.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    return calls
