"""Each walkthrough in demos/ runs to completion as a script and prints the
bytes it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the output names no path, so it does not
# depend on the working directory.
STDOUT_SHA256 = {
    "01_corpus_and_retrieval.py":
        "6bbd1e525949294305c7ebb67753c23d5abfde58358cbf6788703679757b0914",
    "02_chunking.py":
        "1ce9ad9b5ee7cee318531679245eb2adb26e006e5beafdeb860112a3306bd149",
    "03_offline_generation.py":
        "20c7d74ea0b9432919f2c0644e7b90e4e8d4bf45ef27edbe71b9b53e7283511f",
    "04_matrices_and_metrics.py":
        "12ea33e0aa6e19b47a739e79efd92de1dd6731e0e4830a61cad7e7c50425f36a",
    "05_fault_localization.py":
        "9be0b74cab5ed5fb376f2fcef208d5ee7957b620d3cf28cdc0f05be6312c0a31",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
