"""Smoke test of the GMMD baseline script."""
import importlib.util
import json
import math
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_gmmd_baseline.py"


def test_gmmd_baseline_script_writes_its_bundle(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_gmmd_baseline", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "gmmd"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--epochs", "1", "--output-dir", str(out)])
    script.main()
    assert (out / "weights.json").exists()
    assert len((out / "trace.csv").read_text().splitlines()) == 2
    assert math.isfinite(json.loads((out / "report.json").read_text())["tv"])
