"""The benchmark harness still reports every metric BENCHMARK.json names.

perfbench keys its traced metrics on solver functions by name, so a
refactor that renames or deletes one silently drops metrics from the
benchmark line.  perfbench/selftest.py checks that contract on a tiny
instance; this runs it as part of the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
