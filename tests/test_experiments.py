"""Experiment configuration, report bundles and report comparison."""
import json
import math

import numpy as np
import pytest

from borngen import experiments
from borngen.data import CONDITION_VALUES, load_csv, save_csv, synthesize_mfc
from borngen.experiments import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    _near,
    compare_report,
    run_experiment,
)


def _config(**overrides):
    raw = {"experiment": "exp-1d", "seed": 0}
    raw.update(overrides)
    return ExperimentConfig(raw)


def test_required_fields():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig({"seed": 0})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig({"experiment": "exp-1d"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig({"experiment": "exp-42", "seed": 0})


def test_unknown_field_reports_path():
    with pytest.raises(ConfigError, match="train.learning_rate"):
        _config(train={"learning_rate": 0.1})
    with pytest.raises(ConfigError, match="typo"):
        _config(typo=1)


def test_defaults_resolved():
    config = _config()
    assert config.settings["train"]["max_epochs"] == 70
    assert config.settings["circuit"]["n_qubits"] == 4
    assert config.settings["data"]["condition"] == 50.0
    multi = ExperimentConfig({"experiment": "exp-multi", "seed": 0})
    assert multi.settings["train"]["max_epochs"] == 100
    assert multi.settings["circuit"]["block"]["connectivity"] == "linear"


def test_override_nested_field():
    config = _config(train={"max_epochs": 3, "initial_lr": 0.02})
    assert config.settings["train"]["max_epochs"] == 3
    assert config.settings["train"]["initial_lr"] == pytest.approx(0.02)
    tc = config.train_config()
    assert tc.max_epochs == 3
    assert tc.initial_lr == pytest.approx(0.02)


def test_csv_source_requires_existing_path(tmp_path):
    with pytest.raises(ConfigError, match="data.path"):
        _config(data={"source": "csv", "path": str(tmp_path / "nope.csv")})
    with pytest.raises(ConfigError, match="source"):
        _config(data={"source": "sql"})


def test_run_exp_1d_bundle(tmp_path):
    config = _config(train={"max_epochs": 2})
    report = run_experiment(config, tmp_path / "run")
    for name in ("report.json", "resolved_config.json", "metadata.json",
                 "trace.csv", "checkpoint.json", "histogram_e_out.csv"):
        assert (tmp_path / "run" / name).exists(), name
    assert report["experiment"] == "exp-1d"
    assert 0 <= report["metrics"]["tv"] <= 1
    assert len(report["metrics"]["trace"]) == 2
    on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
    assert on_disk["metrics"]["tv"] == report["metrics"]["tv"]


def test_run_is_deterministic(tmp_path):
    config = _config(train={"max_epochs": 2})
    a = run_experiment(config, tmp_path / "a")
    b = run_experiment(config, tmp_path / "b")
    assert a["metrics"]["tv"] == b["metrics"]["tv"]
    assert a["metrics"]["trace"] == b["metrics"]["trace"]


def test_run_exp_1d_from_csv(tmp_path):
    # an e_in a rounding step away from 50 still counts as condition 50
    for e_in in (50.0, 50.000000000001):
        events = synthesize_mfc(512, 50.0, seed=0)
        events[:, 3] = e_in
        path = tmp_path / f"events_{e_in!r}.csv"
        save_csv(events, path)
        config = _config(
            data={"source": "csv", "path": str(path)}, train={"max_epochs": 2}
        )
        report = run_experiment(config, tmp_path / f"run_{e_in!r}")
        assert "tv" in report["metrics"]


def test_condition_match_is_math_isclose():
    # 50 + 5.05e-8 lies within np.isclose's atol + rtol * |b| but not
    # within math.isclose's max(rtol * max(|a|, |b|), atol)
    values = np.array(
        [50.0, 50.0 + 4.9e-8, 50.0 + 5.05e-8, 50.0 - 5.05e-8, 49.0, 0.0, 5e-10, 1e-9,
         1.5e-9, -1e-9, np.inf, -np.inf, np.nan]
    )
    for condition in (50.0, 0.0, 1e-10, -1e-9):
        expected = [math.isclose(v, condition, rel_tol=1e-9, abs_tol=1e-9) for v in values]
        assert _near(values, condition).tolist() == expected


def test_exp_cond_reads_its_csv_once(tmp_path, monkeypatch):
    events = [synthesize_mfc(128, cond, seed=i) for i, cond in enumerate(CONDITION_VALUES)]
    path = tmp_path / "events.csv"
    save_csv(np.concatenate(events), path)
    calls = []

    def counting_load_csv(csv_path):
        calls.append(csv_path)
        return load_csv(csv_path)

    monkeypatch.setattr(experiments, "load_csv", counting_load_csv)
    config = ExperimentConfig(
        {"experiment": "exp-cond", "seed": 0, "train": {"max_epochs": 1},
         "data": {"source": "csv", "path": str(path)}}
    )
    report = run_experiment(config, tmp_path / "run")
    assert calls == [str(path)]
    assert 0 <= report["metrics"]["tv_held_out"] <= 1


def test_csv_without_matching_condition(tmp_path):
    events = synthesize_mfc(64, 75.0, seed=0)
    path = tmp_path / "events.csv"
    save_csv(events, path)
    config = _config(data={"source": "csv", "path": str(path)}, train={"max_epochs": 1})
    with pytest.raises(ConfigError, match="e_in"):
        run_experiment(config, tmp_path / "run")


def test_run_exp_noise_bundle(tmp_path):
    config = ExperimentConfig(
        {"experiment": "exp-noise", "seed": 0, "train": {"max_epochs": 2}}
    )
    report = run_experiment(config, tmp_path / "run")
    m = report["metrics"]
    assert m["tv_mitigated_vs_exact"] < m["tv_noisy"] + 1
    assert {"tv_exact", "tv_noisy", "tv_mitigated"} <= set(m)


_COMMON_FILES = {"report.json", "resolved_config.json", "metadata.json"}
_MODEL_FILES = _COMMON_FILES | {"trace.csv", "checkpoint.json"}
_BUNDLES = {
    "exp-1d": (
        _MODEL_FILES | {"histogram_e_out.csv"},
        {"tv", "final_val_mmd", "best_val_mmd", "trace"},
    ),
    "exp-multi": (
        _MODEL_FILES | {f"histogram_{n}.csv" for n in ("e_out", "pt", "eta")},
        {"tv_per_feature", "pearson_generated", "pearson_data", "pearson_target",
         "final_val_mmd", "best_val_mmd", "trace"},
    ),
    "exp-cond": (
        _MODEL_FILES | {f"histogram_{e}gev.csv" for e in (100, 125, 150)},
        {"tv_per_condition", "tv_held_out", "held_out_condition", "final_val_mmd", "trace"},
    ),
    "exp-blocks": (
        _COMMON_FILES | {f"trace_{i}.csv" for i in range(8)},
        {"blocks", "ranking"},
    ),
    "exp-noise": (
        _MODEL_FILES,
        {"tv_exact", "tv_noisy", "tv_mitigated", "tv_mitigated_vs_exact", "trace"},
    ),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_bundle_files_and_metric_keys(tmp_path, experiment):
    files, keys = _BUNDLES[experiment]
    config = ExperimentConfig({"experiment": experiment, "seed": 0, "train": {"max_epochs": 1}})
    report = run_experiment(config, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files
    assert set(report["metrics"]) == keys
    if "trace" in keys:
        assert len(report["metrics"]["trace"]) == 1


@pytest.mark.parametrize(
    "experiment, body, path",
    [
        ("exp-noise", {"noise": {"cnot_depol_prob": 0.5}}, "noise.cnot_depol_prob"),
        ("exp-noise", {"noise": {"n_trajectories": 3}}, "noise.n_trajectories"),
        ("exp-noise", {"sampling": {"n_shots": 100}}, "sampling"),
        ("exp-cond", {"data": {"condition": 999}}, "data.condition"),
        ("exp-blocks", {"sampling": {"n_shots": 100}}, "sampling"),
    ],
)
def test_unread_field_rejected(experiment, body, path):
    with pytest.raises(ConfigError, match=f"unknown config field '{path}'"):
        ExperimentConfig({"experiment": experiment, "seed": 0, **body})


def test_held_out_must_be_a_condition():
    with pytest.raises(ConfigError, match=r"data\.held_out.*50\.0, 75\.0"):
        ExperimentConfig({"experiment": "exp-cond", "seed": 0, "data": {"held_out": 130.0}})
    config = ExperimentConfig({"experiment": "exp-cond", "seed": 0, "data": {"held_out": 75}})
    assert config.settings["data"]["held_out"] == 75


@pytest.mark.parametrize(
    "experiment, body, message",
    [
        ("exp-1d", {"train": {"optimizer": "sgd"}}, "train: unknown optimizer"),
        ("exp-1d", {"train": {"max_epochs": "3"}}, "train"),
        ("exp-noise", {"noise": {"readout_flip_prob": 0.6}}, r"noise\.readout_flip_prob: "),
        ("exp-noise", {"noise": {"calibration_shots": 0}}, r"noise\.calibration_shots "),
        ("exp-multi", {"circuit": {"block": {"style": "bogus"}}}, r"circuit\.block: bad style"),
        ("exp-1d", {"init_scheme": "bogus"}, "init_scheme: unknown init scheme"),
    ],
    ids=["optimizer", "max_epochs", "readout_flip_prob", "calibration_shots", "block_style",
         "init_scheme"],
)
def test_bad_train_value_rejected_up_front(experiment, body, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig({"experiment": experiment, "seed": 0, **body})


def test_compare_report_identical():
    report = {"experiment": "exp-1d", "metrics": {"tv": 0.5, "trace": []}}
    diff, regression = compare_report(report, json.loads(json.dumps(report)))
    assert diff == {}
    assert not regression


def test_compare_report_regression_flag():
    a = {"experiment": "exp-1d", "metrics": {"tv": 0.10, "nested": {"x": 1.0}}}
    b = {"experiment": "exp-1d", "metrics": {"tv": 0.30, "nested": {"x": 1.0}}}
    diff, regression = compare_report(a, b, tolerance=0.05)
    assert diff == {"tv": pytest.approx(0.2)}
    assert regression
    _, ok = compare_report(a, b, tolerance=0.5)
    assert not ok


def test_compare_report_mismatched_experiments():
    a = {"experiment": "exp-1d", "metrics": {}}
    b = {"experiment": "exp-multi", "metrics": {}}
    with pytest.raises(ValueError):
        compare_report(a, b)


def test_compare_report_structural_mismatch():
    a = {"experiment": "exp-1d", "metrics": {"tv": 0.1}}
    b = {"experiment": "exp-1d", "metrics": {"mmd": 0.1}}
    with pytest.raises(ValueError, match="structural"):
        compare_report(a, b)


def test_experiment_names():
    assert set(EXPERIMENTS) == {
        "exp-1d",
        "exp-multi",
        "exp-cond",
        "exp-blocks",
        "exp-noise",
    }
