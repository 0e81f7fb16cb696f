"""Smoke test of the benchmark's end-to-end run.

One round of the smallest workload, as ``perfbench/run.py`` runs it from
the repository root, so a change to the package that breaks the benchmark
fails a test here, not only the next benchmark run.  The benchmark checks
every pass's outputs with scipy, so the test is skipped without it.  It
asserts nothing about timings.
"""

import json
import os
import subprocess
import sys

import pytest

pytest.importorskip("scipy")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = ("setup_s", "wall_s", "serial_s", "rerun_s", "peak_rss_mb")


def test_one_round_of_the_smallest_workload_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-http",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(END_TO_END)
