"""The benchmark's own short run: every workload once untraced, with its
correctness checks, and once traced. A change that breaks what the
benchmark runs fails here."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_epoch_of_every_workload_runs_correctly():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--epochs", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 6), proc.stderr
