"""Command line interface: run, compare, synth-data and report commands."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from borngen import experiments
from borngen.cli import EXIT_REGRESSION, EXIT_VALIDATION, main
from borngen.data import CONDITION_VALUES, save_csv, synthesize_mfc


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


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["no_seed", "seed"])
@pytest.mark.parametrize("raw", [5, "x", []], ids=["number", "string", "list"])
def test_run_rejects_a_config_that_is_not_an_object(runner, tmp_path, raw, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    result = runner.invoke(main, ["run", str(config), *seed])
    assert result.exit_code == EXIT_VALIDATION
    assert "config error: the config must be an object" in result.output
    assert "Traceback" not in result.output


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


def _write_reports(tmp_path, tv_a, tv_b):
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path, tv in zip(paths, (tv_a, tv_b)):
        path.write_text(json.dumps({"experiment": "exp-1d", "metrics": {"tv": tv}}))
    return [str(path) for path in paths]


@pytest.mark.parametrize("tv", [float("nan"), float("inf"), -float("inf")])
def test_compare_flags_a_metric_that_turns_non_finite(runner, tmp_path, tv):
    # json writes and reads NaN and Infinity literals, so a report can hold them
    result = runner.invoke(main, ["compare", *_write_reports(tmp_path, 0.05, tv)])
    assert result.exit_code == EXIT_REGRESSION
    assert "regression" in result.output


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.01"])
def test_compare_rejects_a_tolerance_that_is_not_finite_and_non_negative(runner, tmp_path,
                                                                        tolerance):
    reports = _write_reports(tmp_path, 0.1, 0.4)
    result = runner.invoke(main, ["compare", *reports, "--tolerance", tolerance])
    assert result.exit_code == EXIT_VALIDATION
    assert "compare error: tolerance must be a finite number >= 0" in result.output


@pytest.mark.parametrize("bad", [[0.1], {"experiment": "exp-1d"}], ids=["not-an-object", "no-metrics"])
def test_compare_rejects_a_report_that_is_not_an_object_with_metrics(runner, tmp_path, bad):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"experiment": "exp-1d", "metrics": {"tv": 0.1}}))
    pb.write_text(json.dumps(bad))
    result = runner.invoke(main, ["compare", str(pa), str(pb)])
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.startswith("compare error: the second report is not a JSON object")
    assert isinstance(result.exception, SystemExit)


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


def test_report_prints_matrices_row_by_row(runner, tmp_path):
    config = _write_config(tmp_path / "config.json", experiment="exp-multi",
                           train={"max_epochs": 1, "batches_per_epoch": 1})
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", str(config), "-o", str(out)]).exit_code == 0
    metrics = json.loads((out / "report.json").read_text())["metrics"]
    shown = runner.invoke(main, ["report", str(out)])
    assert shown.exit_code == 0
    lines = shown.output.splitlines()
    for key in ("pearson_generated", "pearson_data", "pearson_target"):
        start = lines.index(f"  {key}:") + 1
        rows = [[float(v) for v in line.split()] for line in lines[start:start + 3]]
        np.testing.assert_allclose(rows, metrics[key], rtol=1e-5, atol=1e-12)
    assert "  tv_per_feature:" in lines and any(line.startswith("    pt: ") for line in lines)


def test_report_prints_a_list_on_one_line(runner, tmp_path):
    report = {"experiment": "exp-blocks", "seed": 0, "version": "0",
              "metrics": {"blocks": {"a": {"tv": 0.25}}, "ranking": ["a", "b", "c"]}}
    (tmp_path / "report.json").write_text(json.dumps(report))
    shown = runner.invoke(main, ["report", str(tmp_path)])
    assert shown.exit_code == 0
    assert shown.output.splitlines()[2:] == ["  blocks:", "    a:", "      tv: 0.25",
                                             "  ranking: a, b, c"]


def test_report_missing(runner, tmp_path):
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == EXIT_VALIDATION


def test_report_rejects_malformed_json(runner, tmp_path):
    (tmp_path / "report.json").write_text('{"experiment": "exp-1d", ')
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.startswith("report error: ")
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "report, complaint",
    [
        ({"experiment": "exp-1d", "metrics": {"tv": 0.1}}, "has no seed, version"),
        ({"experiment": "exp-1d", "seed": 0, "version": "0"}, "has no metrics"),
        ({"experiment": "exp-1d", "seed": 0, "version": "0", "metrics": [0.1]}, "not a JSON object"),
        ([1, 2], "does not hold a JSON object"),
    ],
    ids=["no-seed-or-version", "no-metrics", "metrics-not-an-object", "not-an-object"],
)
def test_report_rejects_a_report_without_what_it_prints(runner, tmp_path, report, complaint):
    (tmp_path / "report.json").write_text(json.dumps(report))
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == EXIT_VALIDATION
    assert result.output.startswith("report error: ") and complaint in result.output
    assert isinstance(result.exception, SystemExit)


def test_run_reports_config_error_found_while_running(runner, tmp_path):
    events = tmp_path / "events.csv"
    save_csv(synthesize_mfc(64, 75.0, seed=0), events)
    config = _write_config(tmp_path / "config.json", data={"source": "csv", "path": str(events)})
    result = runner.invoke(main, ["run", str(config), "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_VALIDATION
    assert "config error: no events with e_in" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out" / "resolved_config.json").exists()


@pytest.mark.parametrize(
    "rows, column, value, message",
    [
        (slice(1, 2), 0, "x", "malformed row 2"),
        (slice(None), 2, "0.0", "constant feature(s) ['eta']"),
        (slice(1, 2), 0, "nan", "malformed row 2: e_out must be finite"),
        (slice(4, 5), 2, "inf", "malformed row 5: eta must be finite"),
    ],
    ids=["malformed_row", "constant_eta", "nan_e_out", "inf_eta"],
)
def test_run_reports_a_bad_csv_as_a_config_error(runner, tmp_path, rows, column, value, message):
    events = tmp_path / "events.csv"
    save_csv(synthesize_mfc(64, 50.0, seed=0), events)
    header, *lines = events.read_text().splitlines()
    cells = [line.split(",") for line in lines]
    for row in cells[rows]:
        row[column] = value
    events.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
    config = _write_config(tmp_path / "config.json", data={"source": "csv", "path": str(events)})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION
    assert f"config error: {events}: {message}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_reports_a_csv_condition_of_one_event_as_a_config_error(runner, tmp_path):
    # its training half would be empty, its target 0 / 0 and the first
    # gradient at that condition non-finite
    events = np.concatenate([synthesize_mfc(1 if cond == 75.0 else 200, cond, seed=int(cond))
                             for cond in CONDITION_VALUES])
    path = tmp_path / "events.csv"
    save_csv(events, path)
    config = _write_config(tmp_path / "config.json", experiment="exp-cond",
                           data={"source": "csv", "path": str(path)})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION and isinstance(result.exception, SystemExit)
    assert (f"config error: 1 event with e_in == 75.0 (to 1e-9) in {path}: a condition needs "
            "at least 2") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_reports_overflowing_feature_statistics_as_a_config_error(runner, tmp_path):
    # eta's squared deviations overflow: its std would be inf, the
    # standardized column all zero and the binning empty
    events = synthesize_mfc(64, 125.0, seed=0)
    events[:, 2] = 1e200 * np.random.default_rng(0).uniform(-1.0, 1.0, 64)
    path = tmp_path / "events.csv"
    save_csv(events, path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "exp-multi", "seed": 0, "train": {"max_epochs": 1},
                                  "data": {"source": "csv", "path": str(path)}}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION
    assert (f"config error: {path}: non-finite mean or std of feature(s) ['eta']: "
            "cannot standardize") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_reports_too_few_synthetic_events_as_a_config_error(runner, tmp_path):
    config = _write_config(tmp_path / "config.json", data={"n_events": 1})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION
    assert "config error: data.n_events: empty event set" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, body, message",
    [
        # the bins fix every circuit's size; exp-1d and exp-noise read no circuit field
        ("exp-1d", {"circuit": {"n_qubits": 1}}, "unknown config field 'circuit'"),
        ("exp-noise", {"circuit": {"n_qubits": 1}}, "unknown config field 'circuit'"),
        ("exp-multi", {"circuit": {"n_registers": 1}}, "unknown config field 'circuit.n_registers'"),
        ("exp-blocks", {"circuit": {"n_registers": 1}},
         "unknown config field 'circuit.n_registers'"),
        ("exp-cond", {"circuit": {"n_qubits": 0}}, "unknown config field 'circuit.n_qubits'"),
        ("exp-1d", {"data": {"n_events": 0}}, "data.n_events must be an integer >= 1"),
        ("exp-1d", {"sampling": {"n_shots": 0}}, "sampling.n_shots must be an integer >= 1"),
        ("exp-cond", {"sampling": {"repetitions": 0}}, "sampling.repetitions must be"),
    ],
)
def test_run_rejects_bad_size_before_any_data(runner, tmp_path, monkeypatch, experiment, body,
                                               message):
    def no_data(*args, **kwargs):
        raise AssertionError("events were made before the config error")

    monkeypatch.setattr(experiments, "synthesize_mfc", no_data)
    config = _write_config(tmp_path / "config.json", experiment=experiment, **body)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION
    assert f"config error: {message}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_rejects_a_bad_output_dir(runner, tmp_path):
    config = _write_config(tmp_path / "config.json", output_dir=5)
    result = runner.invoke(main, ["run", str(config)])
    assert result.exit_code == EXIT_VALIDATION
    assert "config error: output_dir must be null or a non-empty string" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n_event": 100}, "unknown config field 'n_event'"),
        ({"n_events": 2.5}, "n_events must be an integer >= 1"),
        ({"seed": 1.9}, "seed must be an integer >= 0"),
        ({"conditions": 50}, "conditions must be a list of at least one incoming energy"),
        # json reads a NaN literal
        ({"conditions": [float("nan")]}, "conditions must be a list of at least one incoming"),
        ({"target_corr": "abc"}, "target_corr must be null or a 3x3 list of finite numbers"),
        ({"target_corr": [[1.0, 0.5], [0.5, 1.0]]},
         "target_corr must be null or a 3x3 list of finite numbers"),
    ],
    ids=["typo", "fractional_n_events", "fractional_seed", "scalar_conditions", "nan_condition",
         "string_corr", "2x2_corr"],
)
def test_synth_data_checks_its_params(runner, tmp_path, params, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out_csv = tmp_path / "x.csv"
    result = runner.invoke(main, ["synth-data", str(path), str(out_csv)])
    assert result.exit_code == EXIT_VALIDATION
    assert f"synth-data error: {message}" in result.output
    assert "Traceback" not in result.output
    assert not out_csv.exists()


def test_gmmd_report_is_read_by_report_and_compare(runner, tmp_path):
    config = _write_config(tmp_path / "config.json", experiment="exp-gmmd", train={"max_epochs": 1})
    out = tmp_path / "out"
    assert runner.invoke(main, ["run", str(config), "-o", str(out)]).exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert {"version", "config"} <= set(report)
    assert (out / "resolved_config.json").exists() and (out / "metadata.json").exists()
    shown = runner.invoke(main, ["report", str(out)])
    assert shown.exit_code == 0 and "exp-gmmd" in shown.output and "tv" in shown.output
    path = str(out / "report.json")
    compared = runner.invoke(main, ["compare", path, path])
    assert compared.exit_code == 0 and "identical" in compared.output
