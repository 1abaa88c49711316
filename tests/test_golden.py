"""Golden bundles: every experiment, run short at a fixed seed, must give the
numbers checked in under tests/golden/.

Each file holds one experiment's report metrics (the trace included; it
carries no wall-clock seconds), its checkpoint or GMMD weights and every
histogram CSV. Numbers are compared at a relative 1e-10, with an absolute
floor of 1e-15 for entries that round to zero, so that another BLAS build
may move the last bits but a changed result fails. Regenerate the files with
`PYTHONPATH=src python scripts/regenerate_golden.py` and say why in
CHANGES.md.
"""
import csv
import json
import math
from pathlib import Path

import pytest

from borngen.experiments import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 3
RTOL, ATOL = 1e-10, 1e-15
# max_epochs per experiment: each run is short but trains through every path
EPOCHS = {
    "exp-1d": 2,
    "exp-multi": 2,
    "exp-cond": 2,
    "exp-blocks": 1,
    "exp-noise": 2,
    "exp-gmmd": 3,
}


def _histogram(path: Path) -> dict:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def bundle_numbers(experiment: str, out: Path) -> dict:
    """Run the experiment into out and gather the numbers of its bundle."""
    config = ExperimentConfig(
        {"experiment": experiment, "seed": SEED, "train": {"max_epochs": EPOCHS[experiment]}}
    )
    numbers = {"metrics": run_experiment(config, out)["metrics"]}
    for name in ("checkpoint.json", "weights.json"):
        if (out / name).exists():
            numbers[name] = json.loads((out / name).read_text())
    for path in sorted(out.glob("histogram_*.csv")):
        numbers[path.name] = _histogram(path)
    return numbers


def _leaves(value, path=""):
    """Every leaf of nested dicts and lists, keyed by its dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    leaves = {}
    for key, item in items:
        leaves.update(_leaves(item, f"{path}.{key}" if path else str(key)))
    return leaves


def differences(expected, actual) -> list[str]:
    """The leaves at which actual does not match expected."""
    want, got = _leaves(expected), _leaves(actual)
    if set(want) != set(got):
        return [f"keys differ: {sorted(set(want) ^ set(got))}"]
    bad = []
    for key, a in want.items():
        b = got[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numeric and (a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)):
            continue
        if not numeric and a == b:
            continue
        bad.append(f"{key}: expected {a!r}, got {b!r}")
    return bad


@pytest.mark.parametrize("experiment", list(EPOCHS))
def test_bundle_matches_golden(experiment, tmp_path):
    expected = json.loads((GOLDEN / f"{experiment}.json").read_text())
    assert differences(expected, bundle_numbers(experiment, tmp_path)) == []


def test_golden_comparison_finds_a_relative_shift():
    golden = {"metrics": {"tv": 0.25, "trace": [{"phase": "adam", "val_loss": 1e-3}]}}
    shifted = json.loads(json.dumps(golden))
    shifted["metrics"]["trace"][0]["val_loss"] *= 1 + 1e-9
    assert differences(golden, json.loads(json.dumps(golden))) == []
    assert differences(golden, shifted) == [
        "metrics.trace.0.val_loss: expected 0.001, got 0.001000000001"
    ]
