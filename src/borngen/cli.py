"""Command line interface: run experiments, compare and inspect reports."""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .data import save_csv, synthesize_mfc
from .experiments import ConfigError, ExperimentConfig, compare_report, run_experiment
from .experiments import _count, _must, _resolve
from .optimize import TrainingDivergedError
from .sim import _is_positive_real, _is_real

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TRAINING = 2
EXIT_REGRESSION = 3


def _is_corr(value) -> bool:
    """Whether value is null or a 3x3 list of finite numbers (a bool is not one)."""
    row = lambda r: isinstance(r, list) and len(r) == 3 and all(map(_is_real, r))
    return value is None or isinstance(value, list) and len(value) == 3 and all(map(row, value))


# synth-data's parameters: each one's name, check and default
_SYNTH_PARAMS = (
    ("n_events", _count(1), 10240),
    ("conditions", _must(lambda c: isinstance(c, list) and c and all(map(_is_positive_real, c)),
                         "a list of at least one incoming energy, each a finite number > 0"),
     [50.0]),
    # None: data.DEFAULT_CORRELATION
    ("target_corr", _must(_is_corr, "null or a 3x3 list of finite numbers"), None),
    ("seed", _count(0), 0),
)


@click.group()
def main():
    """Born machine experiment runner."""


def _output_dir(config: ExperimentConfig, override):
    if override:
        return Path(override)
    root = os.environ.get("BORNGEN_OUTPUT_ROOT", "runs")
    name = config.output_dir or f"{config.experiment}-seed{config.seed}"
    return Path(root) / name


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--output-dir", "-o", default=None, help="Override the output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def run_cmd(config_path, output_dir, seed):
    """Run the experiment described by a JSON config file."""
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
        if seed is not None and isinstance(raw, dict):
            raw["seed"] = seed
        config = ExperimentConfig(raw)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    out = _output_dir(config, output_dir)
    try:
        report = run_experiment(config, out)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except TrainingDivergedError as exc:
        click.echo(f"training aborted: {exc}", err=True)
        sys.exit(EXIT_TRAINING)
    click.echo(f"report written to {out / 'report.json'}")
    _echo_metrics(report["metrics"])
    sys.exit(EXIT_OK)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def _echo_metrics(metrics, indent=2):
    """Every metric but the trace: a dict nested below its key, a matrix one
    row per line, and a list or a number on one line."""
    pad = " " * indent
    for key, value in metrics.items():
        if key == "trace":
            continue
        if isinstance(value, dict):
            click.echo(f"{pad}{key}:")
            _echo_metrics(value, indent + 2)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            click.echo(f"{pad}{key}:")
            for row in value:
                click.echo(pad + "".join(f"{v:>11.6g}" for v in row))
        else:
            values = value if isinstance(value, list) else [value]
            click.echo(f"{pad}{key}: " + ", ".join(map(_format, values)))


@main.command("compare")
@click.argument("report_a", type=click.Path(exists=True))
@click.argument("report_b", type=click.Path(exists=True))
@click.option("--tolerance", type=float, default=0.05, show_default=True)
def compare_cmd(report_a, report_b, tolerance):
    """Diff two report.json files; nonzero exit on regression."""
    try:
        with open(report_a) as fh:
            a = json.load(fh)
        with open(report_b) as fh:
            b = json.load(fh)
        diff, regression = compare_report(a, b, tolerance)
    except (ValueError, OSError) as exc:
        click.echo(f"compare error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    if not diff:
        click.echo("reports are identical")
        sys.exit(EXIT_OK)
    for key, delta in diff.items():
        click.echo(f"{key}: {delta:+.6g}")
    if regression:
        click.echo(f"regression: at least one delta exceeds {tolerance}", err=True)
        sys.exit(EXIT_REGRESSION)
    sys.exit(EXIT_OK)


@main.command("synth-data")
@click.argument("params_path", type=click.Path(exists=True))
@click.argument("out_csv", type=click.Path())
def synth_cmd(params_path, out_csv):
    """Generate a synthetic event CSV from a JSON parameter file.

    The parameter file may set n_events, conditions (list of incoming
    energies), target_corr (3x3 matrix) and seed, and nothing else.
    """
    try:
        with open(params_path) as fh:
            params = _resolve(json.load(fh), _SYNTH_PARAMS)
        n_events, conditions = params["n_events"], params["conditions"]
        corr, seed = params["target_corr"], params["seed"]
        events = np.concatenate(
            [synthesize_mfc(n_events, float(c), corr, seed + i) for i, c in enumerate(conditions)]
        )
        save_csv(events, out_csv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"synth-data error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"wrote {len(events)} events to {out_csv}")
    sys.exit(EXIT_OK)


@main.command("report")
@click.argument("run_dir", type=click.Path(exists=True))
def report_cmd(run_dir):
    """Pretty-print the report of a finished run directory."""
    path = Path(run_dir) / "report.json"
    if not path.exists():
        click.echo(f"no report.json in {run_dir}", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        with open(path) as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        missing = [key for key in ("experiment", "seed", "version", "metrics") if key not in report]
        if missing:
            raise ValueError(f"{path} has no {', '.join(missing)}")
        if not isinstance(report["metrics"], dict):
            raise ValueError(f"the metrics of {path} are not a JSON object")
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        click.echo(f"report error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"experiment: {report['experiment']}  seed: {report['seed']}")
    click.echo(f"version: {report['version']}")
    _echo_metrics(report["metrics"])
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
