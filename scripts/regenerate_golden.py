#!/usr/bin/env python3
"""Rewrite tests/golden/<experiment>.json from the code as it stands.

Usage, from the repository root:
    PYTHONPATH=src python scripts/regenerate_golden.py [experiment ...]

With no arguments every experiment is rewritten. A change that regenerates
the files says why in CHANGES.md, with the largest shift per metric.
"""
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_golden import EPOCHS, GOLDEN, bundle_numbers  # noqa: E402


def main(experiments) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for experiment in experiments or EPOCHS:
        with tempfile.TemporaryDirectory() as out:
            numbers = bundle_numbers(experiment, Path(out))
        path = GOLDEN / f"{experiment}.json"
        path.write_text(json.dumps(numbers, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
