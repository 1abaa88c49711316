#!/usr/bin/env bash
# Run every experiment config and collect the reports under runs/.
# Usage: scripts/run_all_experiments.sh [output_root]
# Runs the borngen of this checkout (its src/), installed or not.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
root="${1:-runs}"
export BORNGEN_OUTPUT_ROOT="$root"

for config in "$repo"/configs/exp_*.json; do
    echo "=== $config ==="
    python -m borngen.cli run "$config"
done

echo "all reports under $root/"
