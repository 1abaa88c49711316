#!/usr/bin/env python3
"""Compare two trees of run bundles file by file.

Usage, from the repository root:
    python scripts/diff_bundles.py DIR_A DIR_B

Each file under DIR_A is compared with the file at the same relative path
under DIR_B, and a file that is in one tree only is a difference. Files are
compared byte for byte, except for the three fields that change from run to
run of the same code and seed:
  - the top-level `version` of each report.json,
  - the top-level `completed_at` of each metadata.json,
  - the `seconds` column of each trace*.csv, found by its header name.
Those two JSON files are compared as parsed JSON without that key, with
every number to its last bit; the rest of a trace is compared field by
field as text.

Prints each differing path, then exits 1 if there was any and 0 if not.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

IGNORED_KEYS = {"report.json": "version", "metadata.json": "completed_at"}
IGNORED_COLUMN = "seconds"


def comparable(path: Path):
    """What of the file at path must match: its bytes, less any ignored field."""
    raw = path.read_bytes()
    key = IGNORED_KEYS.get(path.name)
    if key is not None:
        payload = json.loads(raw)
        if isinstance(payload, dict):
            payload.pop(key, None)
        # repr of a float round-trips, so equal text means equal numbers
        return json.dumps(payload, sort_keys=True)
    if path.name.startswith("trace") and path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        if rows and IGNORED_COLUMN in rows[0]:
            col = rows[0].index(IGNORED_COLUMN)
            return [row[:col] + row[col + 1 :] for row in rows]
    return raw


def differing_paths(a: Path, b: Path) -> list[str]:
    """The relative paths of the files that differ between trees a and b."""
    files_a, files_b = (
        {p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)
    )
    return [
        str(rel)
        for rel in sorted(files_a | files_b)
        if rel not in files_a or rel not in files_b or comparable(a / rel) != comparable(b / rel)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    differing = differing_paths(args.dir_a, args.dir_b)
    for rel in differing:
        print(rel)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
