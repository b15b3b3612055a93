"""The benchmark's traced mode, run as the benchmark command runs it.

``python3 bench/run.py`` runs each workload's ops plain and then traced, and
the traced run exits 3 when a layer that ``bench/layers.py`` marks on for a
workload records no calls: a refactor that renames, inlines or stops
calling such a layer fails the benchmark while every other test passes.
``--seconds 0`` makes one traced pass per workload, a few seconds in all.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_records_every_marked_layer_and_passes_its_checks():
    proc = subprocess.run([sys.executable, "bench/run.py", "--trace", "1", "--seconds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
