"""Command line interface: run, compare, synth-data and report commands."""
import json

import pytest
from click.testing import CliRunner

from borngen.cli import EXIT_REGRESSION, EXIT_VALIDATION, main
from borngen.data import save_csv, synthesize_mfc


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, **overrides):
    raw = {"experiment": "exp-1d", "seed": 0, "train": {"max_epochs": 2}}
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path


def test_run_writes_report(runner, tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "report.json").exists()
    assert "tv" in result.output


def test_run_rejects_bad_config(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "exp-1d", "seed": 0, "bogus": 1}))
    result = runner.invoke(main, ["run", str(config)])
    assert result.exit_code == EXIT_VALIDATION
    assert "bogus" in result.output


def test_run_rejects_invalid_json(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    result = runner.invoke(main, ["run", str(config)])
    assert result.exit_code == EXIT_VALIDATION


def test_run_seed_override(runner, tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out), "--seed", "5"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5


def test_run_output_root_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("BORNGEN_OUTPUT_ROOT", str(tmp_path / "root"))
    config = _write_config(tmp_path / "config.json")
    result = runner.invoke(main, ["run", str(config)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "root" / "exp-1d-seed0" / "report.json").exists()


def test_compare_identical_reports(runner, tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    runner.invoke(main, ["run", str(config), "-o", str(out)])
    report = str(out / "report.json")
    result = runner.invoke(main, ["compare", report, report])
    assert result.exit_code == 0
    assert "identical" in result.output


def test_compare_flags_regression(runner, tmp_path):
    a = {"experiment": "exp-1d", "metrics": {"tv": 0.1}}
    b = {"experiment": "exp-1d", "metrics": {"tv": 0.4}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    result = runner.invoke(main, ["compare", str(pa), str(pb), "--tolerance", "0.05"])
    assert result.exit_code == EXIT_REGRESSION
    assert "regression" in result.output


def test_compare_mismatched_reports(runner, tmp_path):
    a = {"experiment": "exp-1d", "metrics": {"tv": 0.1}}
    b = {"experiment": "exp-multi", "metrics": {"tv": 0.1}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    result = runner.invoke(main, ["compare", str(pa), str(pb)])
    assert result.exit_code == EXIT_VALIDATION


def test_synth_data(runner, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_events": 100, "conditions": [50.0, 75.0], "seed": 1}))
    out_csv = tmp_path / "events.csv"
    result = runner.invoke(main, ["synth-data", str(params), str(out_csv)])
    assert result.exit_code == 0, result.output
    assert "200 events" in result.output
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "e_out,pt,eta,e_in"
    assert len(lines) == 201


def test_synth_data_rejects_bad_corr(runner, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"target_corr": [[1.0, 2.0], [2.0, 1.0]]}))
    result = runner.invoke(main, ["synth-data", str(params), str(tmp_path / "x.csv")])
    assert result.exit_code == EXIT_VALIDATION


def test_synth_data_rejects_empty_conditions(runner, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"conditions": []}))
    result = runner.invoke(main, ["synth-data", str(params), str(tmp_path / "x.csv")])
    assert result.exit_code == EXIT_VALIDATION
    assert "at least one incoming energy" in result.output


def test_report_command(runner, tmp_path):
    config = _write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    runner.invoke(main, ["run", str(config), "-o", str(out)])
    result = runner.invoke(main, ["report", str(out)])
    assert result.exit_code == 0
    assert "exp-1d" in result.output
    assert "tv" in result.output


def test_report_missing(runner, tmp_path):
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == EXIT_VALIDATION


def test_run_reports_config_error_found_while_running(runner, tmp_path):
    events = tmp_path / "events.csv"
    save_csv(synthesize_mfc(64, 75.0, seed=0), events)
    config = _write_config(tmp_path / "config.json", data={"source": "csv", "path": str(events)})
    result = runner.invoke(main, ["run", str(config), "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_VALIDATION
    assert "config error: no events with e_in" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "resolved_config.json").exists()
