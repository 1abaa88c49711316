"""Experiment configuration, report bundles and report comparison."""
import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from borngen import data, experiments
from borngen.baseline import load_weights
from borngen.data import (
    CONDITION_VALUES,
    DEFAULT_CORRELATION,
    BinningSpec,
    apply_preprocess,
    discretize,
    inverse_preprocess,
    load_csv,
    preprocess,
    save_csv,
    synthesize_mfc,
    train_test_split,
)
from borngen.experiments import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    _near,
    compare_report,
    run_experiment,
)
from borngen.optimize import TrainConfig, trace_to_json


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


@pytest.mark.parametrize("seed", ["abc", 1.7, True, -1, None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0"):
        ExperimentConfig({"experiment": "exp-1d", "seed": seed})


def test_every_checked_in_config_loads():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("exp_*.json"))
    loaded = [ExperimentConfig(json.loads(path.read_text())) for path in configs]
    assert sorted(c.experiment for c in loaded) == sorted(EXPERIMENTS)


def test_unknown_field_reports_path():
    with pytest.raises(ConfigError, match="train.learning_rate"):
        _config(train={"learning_rate": 0.1})
    with pytest.raises(ConfigError, match="typo"):
        _config(typo=1)


def test_defaults_resolved():
    config = _config()
    assert config.settings["train"]["max_epochs"] == 70
    assert "circuit" not in config.settings  # 16 bins fix the 1D model's 4 qubits
    assert config.settings["data"]["condition"] == 50.0
    multi = ExperimentConfig({"experiment": "exp-multi", "seed": 0})
    assert multi.settings["train"]["max_epochs"] == 100
    assert multi.settings["circuit"] == {
        "n_repetitions": 4,
        "block": {"connectivity": "linear", "depth_pairs": "first_only", "style": "hh_cx"},
    }


def test_override_nested_field():
    config = _config(train={"max_epochs": 3, "initial_lr": 0.02})
    assert config.settings["train"]["max_epochs"] == 3
    assert config.settings["train"]["initial_lr"] == pytest.approx(0.02)
    tc = config.train_config()
    assert tc.max_epochs == 3
    assert tc.initial_lr == pytest.approx(0.02)


def test_csv_source_requires_existing_path(tmp_path):
    # '' is the current directory, which exists but is no file
    for path in (str(tmp_path / "nope.csv"), "", str(tmp_path)):
        with pytest.raises(ConfigError, match="data.path must be an existing file"):
            _config(data={"source": "csv", "path": path})
    with pytest.raises(ConfigError, match="source"):
        _config(data={"source": "sql"})


def test_output_dir_may_be_null():
    assert _config(output_dir=None).output_dir is None
    assert _config(output_dir="runs/a").output_dir == "runs/a"
    for bad in ("", 5):
        with pytest.raises(ConfigError, match="output_dir must be null or a non-empty string"):
            _config(output_dir=bad)


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


def _cond_csv(tmp_path, sizes):
    """A CSV of synthetic events at each condition, with sizes[i] rows at
    condition i."""
    events = [synthesize_mfc(n, cond, seed=i) for i, (n, cond) in enumerate(zip(sizes, CONDITION_VALUES))]
    path = tmp_path / "events.csv"
    save_csv(np.concatenate(events), path)
    return path


# one source of equal row counts, and a CSV with five distinct counts
_COND_SOURCES = {
    "synthetic": lambda tmp_path: {"n_events": 600},
    "csv": lambda tmp_path: {"source": "csv", "path": str(_cond_csv(tmp_path, [80, 101, 80, 64, 120, 101, 77]))},
}


def _cond_reference(config):
    """exp-cond's binning and its train, validation and held-out
    distributions, made the way each condition used to be: split by
    train_test_split, every feature preprocessed with apply_preprocess."""
    held_out = config.settings["data"]["held_out"]
    train_conditions = [cond for cond in CONDITION_VALUES if cond != held_out]
    events = experiments._events(config, {cond: int(cond) for cond in CONDITION_VALUES})
    splits = {cond: train_test_split(events[cond], config.seed) for cond in CONDITION_VALUES}
    pooled = np.concatenate([splits[cond][0] for cond in train_conditions])
    _, params = preprocess(pooled)
    energy = lambda evs: apply_preprocess(evs, params)[:, [0]]
    binning = BinningSpec.from_training_data(energy(pooled), [8])
    train = {cond: discretize(energy(splits[cond][0]), binning) for cond in train_conditions}
    val = {cond: discretize(energy(splits[cond][1]), binning) for cond in train_conditions}
    return binning, train, val, discretize(energy(splits[held_out][1]), binning)


@pytest.mark.parametrize("source", sorted(_COND_SOURCES))
@pytest.mark.parametrize("held_out", [50.0, 125.0])
def test_exp_cond_distributions_equal_the_per_condition_route(tmp_path, monkeypatch, source, held_out):
    config = ExperimentConfig(
        {"experiment": "exp-cond", "seed": 3, "train": {"max_epochs": 1},
         "data": {"held_out": held_out, **_COND_SOURCES[source](tmp_path)}}
    )
    fitted = []
    fit = experiments._fit

    def recording_fit(config, circuit, target, val_target, **kwargs):
        fitted.append((target, val_target))
        return fit(config, circuit, target, val_target, **kwargs)

    monkeypatch.setattr(experiments, "_fit", recording_fit)
    *_, histograms = experiments._exp_cond(config)
    binning, train, val, held = _cond_reference(config)
    ((got_train, got_val),) = fitted
    _, got_binning, _, got_held, *_ = histograms[-1]  # the held-out histogram comes last
    assert got_binning == binning
    for got, want in ((got_train, train), (got_val, val), ({held_out: got_held}, {held_out: held})):
        assert list(got) == list(want)
        for cond in want:
            assert (got[cond].probs == want[cond].probs).all()
            assert got[cond].register_bits == want[cond].register_bits


def _count_set_up_work(monkeypatch):
    """Spies on split-order draws (their row counts) and on raw-feature
    passes that compute pt ** 0.1 (their row counts)."""
    orders, pt_rows = [], []
    split_order, raw_features = data._split_order, data._raw_features

    def counted_order(n_rows, seed):
        orders.append(n_rows)
        return split_order(n_rows, seed)

    def counted_raw(events, incoming_mean, columns=(0, 1, 2)):
        if 1 in columns:
            pt_rows.append(len(events))
        return raw_features(events, incoming_mean, columns)

    for module in (data, experiments):
        if hasattr(module, "_split_order"):
            monkeypatch.setattr(module, "_split_order", counted_order)
    monkeypatch.setattr(data, "_raw_features", counted_raw)
    return orders, pt_rows


@pytest.mark.parametrize("source", sorted(_COND_SOURCES))
def test_exp_cond_sets_up_each_piece_of_work_once(tmp_path, monkeypatch, source):
    config = ExperimentConfig(
        {"experiment": "exp-cond", "seed": 0, "train": {"max_epochs": 1},
         "data": _COND_SOURCES[source](tmp_path)}
    )
    sizes = {cond: len(evs) for cond, evs in
             experiments._events(config, {cond: int(cond) for cond in CONDITION_VALUES}).items()}
    orders, pt_rows = _count_set_up_work(monkeypatch)
    run_experiment(config, tmp_path / "run")
    # one split order per distinct row count, and pt ** 0.1 for the pooled
    # training halves alone
    assert sorted(orders) == sorted(set(sizes.values()))
    held_out = config.settings["data"]["held_out"]
    assert pt_rows == [sum(n // 2 for cond, n in sizes.items() if cond != held_out)]


@pytest.mark.parametrize("experiment", ["exp-1d", "exp-noise", "exp-gmmd"])
def test_one_feature_experiments_compress_pt_for_the_training_half_alone(tmp_path, monkeypatch, experiment):
    config = ExperimentConfig(
        {"experiment": experiment, "seed": 0, "train": {"max_epochs": 1}, "data": {"n_events": 300}}
    )
    orders, pt_rows = _count_set_up_work(monkeypatch)
    run_experiment(config, tmp_path / "run")
    assert orders == [300] and pt_rows == [150]


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
    "exp-gmmd": (
        _COMMON_FILES | {"trace.csv", "weights.json"},
        {"tv", "final_val_mmd", "best_val_mmd", "trace"},
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


def test_pearson_data_is_the_binned_test_split_in_physical_units():
    config = ExperimentConfig({"experiment": "exp-multi", "seed": 3,
                               "train": {"max_epochs": 1, "batches_per_epoch": 1}})
    pearson_data = experiments._HOOKS["exp-multi"](config)[2]["pearson_data"]
    events = synthesize_mfc(10240, 125.0, DEFAULT_CORRELATION, 3)
    train_events, test_events = train_test_split(events, 3)
    train_f, params = preprocess(train_events)
    binning = BinningSpec.from_training_data(train_f[:, :3], [8, 8, 8])
    lower, upper = np.array(binning.lower), np.array(binning.upper)
    x = apply_preprocess(test_events, params)[:, :3]
    coords = np.clip(np.floor((x - lower) / ((upper - lower) / 8)).astype(int), 0, 7)
    centers = np.column_stack([binning.bin_centers(j)[coords[:, j]] for j in range(3)])
    expected = np.corrcoef(inverse_preprocess(centers, params), rowvar=False)
    np.testing.assert_allclose(pearson_data, expected, rtol=0, atol=1e-12)
    # binning moves each coefficient by less than 0.025 from that of the raw
    # test events; the bin indices themselves are 0.033 off at (pt, eta)
    raw = np.corrcoef(test_events[:, :3], rowvar=False)
    np.testing.assert_allclose(pearson_data, raw, rtol=0, atol=0.025)


def test_pearson_generated_is_the_drawn_events_in_physical_units(monkeypatch):
    models, model_distribution = [], experiments.model_distribution

    def keep(*args):
        models.append(model_distribution(*args))
        return models[-1]

    monkeypatch.setattr(experiments, "model_distribution", keep)
    config = ExperimentConfig({"experiment": "exp-multi", "seed": 3,
                               "train": {"max_epochs": 1, "batches_per_epoch": 1}})
    pearson_generated = experiments._HOOKS["exp-multi"](config)[2]["pearson_generated"]
    (dist,) = models
    events = synthesize_mfc(10240, 125.0, DEFAULT_CORRELATION, 3)
    train_f, params = preprocess(train_test_split(events, 3)[0])
    binning = BinningSpec.from_training_data(train_f[:, :3], [8, 8, 8])
    q = dist.probs / dist.probs.sum()
    drawn = np.random.default_rng(3).choice(len(q), 100000, p=q)
    coords = dist.bin_coordinates()[drawn]
    centers = np.column_stack([binning.bin_centers(j)[coords[:, j]] for j in range(3)])
    expected = np.corrcoef(inverse_preprocess(centers, params), rowvar=False)
    np.testing.assert_allclose(pearson_generated, expected, rtol=0, atol=1e-12)


def test_two_runs_read_the_version_once(tmp_path, monkeypatch):
    calls = []
    real_run = experiments.subprocess.run

    def spy(args, **kwargs):
        calls.append(args)
        return real_run(args, **kwargs)

    experiments._version_string.cache_clear()
    monkeypatch.setattr(experiments.subprocess, "run", spy)
    config = ExperimentConfig({"experiment": "exp-1d", "seed": 0, "train": {"max_epochs": 1}})
    reports = [run_experiment(config, tmp_path / str(i)) for i in range(2)]
    assert [args[0] for args in calls] == ["git"]
    assert reports[0]["version"] == reports[1]["version"]


def test_gmmd_reads_its_model_and_epochs(tmp_path):
    config = ExperimentConfig(
        {"experiment": "exp-gmmd", "seed": 0, "train": {"max_epochs": 2},
         "model": {"latent_dim": 3, "hidden": [5]}}
    )
    report = run_experiment(config, tmp_path)
    weights, spec = load_weights(tmp_path / "weights.json")
    assert (spec.latent_dim, spec.hidden, spec.output_dim) == (3, (5,), 1)
    assert [w.shape for w, _ in weights] == [(3, 5), (5, 1)]
    assert len(report["metrics"]["trace"]) == 2
    assert 0 <= report["metrics"]["tv"] <= 1


@pytest.mark.parametrize(
    "experiment, body, path",
    [
        ("exp-noise", {"noise": {"cnot_depol_prob": 0.5}}, "noise.cnot_depol_prob"),
        ("exp-noise", {"noise": {"n_trajectories": 3}}, "noise.n_trajectories"),
        ("exp-noise", {"sampling": {"n_shots": 100}}, "sampling"),
        ("exp-cond", {"data": {"condition": 999}}, "data.condition"),
        ("exp-blocks", {"sampling": {"n_shots": 100}}, "sampling"),
        ("exp-gmmd", {"init_scheme": "zeros"}, "init_scheme"),
        ("exp-gmmd", {"train": {"initial_lr": 0.02}}, "train.initial_lr"),
        ("exp-gmmd", {"train": {"bandwidths": [1.0]}}, "train.bandwidths"),
        ("exp-gmmd", {"circuit": {"n_qubits": 4}}, "circuit"),
        ("exp-gmmd", {"sampling": {"n_shots": 100}}, "sampling"),
        ("exp-1d", {"data": {"path": "events.csv"}}, "data.path"),
        ("exp-1d", {"data": {"source": "csv", "path": "events.csv", "n_events": 5}},
         "data.n_events"),
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
        ("exp-1d", {"train": {"max_epochs": 2.5}}, "train: counts must be >= 1"),
        ("exp-noise", {"noise": {"readout_flip_prob": 0.6}}, r"noise\.readout_flip_prob: "),
        # json reads a NaN literal, so a config file can hold these
        ("exp-noise", {"noise": {"readout_flip_prob": float("nan")}}, r"noise\.readout_flip_prob: "),
        ("exp-1d", {"train": {"bandwidths": [1.0, float("nan")]}}, "train: bandwidths must be"),
        ("exp-1d", {"train": {"bandwidths": [float("inf")]}}, "train: bandwidths must be"),
        # json reads 1e400 as inf
        ("exp-1d", {"train": {"initial_lr": float("inf")}}, "train: initial_lr must be a finite number"),
        ("exp-cond", {"train": {"initial_lr": True}}, "train: initial_lr must be a finite number"),
        ("exp-multi", {"train": {"initial_lr": "0.01"}}, "train: initial_lr must be a finite number"),
        ("exp-1d", {"train": {"bandwidths": ["1"]}}, "train: bandwidths must be"),
        ("exp-noise", {"train": {"bandwidths": [True]}}, "train: bandwidths must be"),
        ("exp-1d", {"train": {"bandwidths": "abc"}}, r"train\.bandwidths must be a list, not 'abc'"),
        # one probability, or one per qubit of the 4-qubit 1D target
        ("exp-noise", {"noise": {"readout_flip_prob": [0.01, 0.02, 0.03]}},
         r"noise\.readout_flip_prob: expected 4 per-qubit flip probabilities"),
        ("exp-noise", {"noise": {"readout_flip_prob": []}},
         r"noise\.readout_flip_prob: expected 4 per-qubit flip probabilities"),
        *[
            ("exp-noise", {"noise": {"readout_flip_prob": value}},
             r"noise\.readout_flip_prob: readout flip probabilities must be numbers")
            for value in ("0.01", False, [False, 0.01, 0.01, 0.01])
        ],
        ("exp-noise", {"noise": {"calibration_shots": 0}}, r"noise\.calibration_shots "),
        ("exp-multi", {"circuit": {"block": {"style": "bogus"}}}, r"circuit\.block: bad style"),
        ("exp-1d", {"init_scheme": "bogus"}, "init_scheme: unknown init scheme"),
        ("exp-1d", {"train": {"max_epochs": 1, "spsa_epochs": -3}},
         "train: spsa_epochs must be an integer >= 0"),
        ("exp-1d", {"train": {"sample_batches": True}},
         r"^unknown config field 'train\.sample_batches'$"),
        ("exp-1d", {"train": {"optimizer": "mixed"}},
         "train: unknown optimizer 'mixed': .* followed by spsa_epochs of SPSA"),
        ("exp-multi", {"train": {"batch_size": 0}}, "train: counts must be >= 1"),
        ("exp-1d", {"data": {"n_events": 512.5}}, r"data\.n_events must be an integer"),
        ("exp-gmmd", {"train": {"max_epochs": 0}}, "train: counts must be >= 1"),
        ("exp-gmmd", {"model": {"latent_dim": 0}}, r"model\.latent_dim must be an integer"),
        ("exp-gmmd", {"model": {"hidden": [64, 2.5]}}, r"model\.hidden must be an integer"),
        ("exp-gmmd", {"model": {"hidden": 64}}, r"model\.hidden must be a list"),
        *[
            (experiment, {"data": {"condition": value}}, r"data\.condition must be a finite number")
            for experiment in ("exp-1d", "exp-gmmd")
            for value in (float("nan"), 0, -50, "abc")
        ],
    ],
    ids=["optimizer", "max_epochs", "fractional_max_epochs", "readout_flip_prob",
         "nan_readout_flip_prob", "nan_bandwidth", "inf_bandwidth", "inf_initial_lr",
         "bool_initial_lr", "string_initial_lr", "string_bandwidth", "bool_bandwidth",
         "string_bandwidths", "short_readout_flip_probs",
         "empty_readout_flip_probs", "string_readout_flip_prob", "bool_readout_flip_prob",
         "bool_readout_flip_probs", "calibration_shots", "block_style", "init_scheme",
         "spsa_epochs", "sample_batches", "mixed_optimizer", "batch_size", "n_events",
         "gmmd_max_epochs", "latent_dim", "hidden_width", "hidden_list",
         *[f"{experiment}_{value}_condition" for experiment in ("exp-1d", "exp-gmmd")
           for value in ("nan", "zero", "negative", "string")]],
)
def test_bad_train_value_rejected_up_front(experiment, body, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig({"experiment": experiment, "seed": 0, **body})


def test_one_flip_probability_per_qubit_is_accepted():
    probs = [0.01, 0.02, 0.03, 0.04]
    config = ExperimentConfig({"experiment": "exp-noise", "seed": 0,
                               "noise": {"readout_flip_prob": probs}})
    assert config.settings["noise"]["readout_flip_prob"] == probs


@pytest.mark.parametrize(
    "experiment, body, section",
    [
        ("exp-1d", {"sampling": 5}, "sampling"),
        ("exp-noise", {"noise": 5}, "noise"),
        ("exp-gmmd", {"model": 5}, "model"),
        ("exp-multi", {"circuit": 5}, "circuit"),
        ("exp-multi", {"circuit": {"block": "linear"}}, "circuit.block"),
        ("exp-1d", {"data": 5}, "data"),
        ("exp-1d", {"train": [1]}, "train"),
    ],
)
def test_section_must_be_an_object(experiment, body, section):
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)} must be an object$"):
        ExperimentConfig({"experiment": experiment, "seed": 0, **body})


def _readme_fields() -> dict:
    """{(field, experiment): default} from README's table of config fields,
    whose columns are the field, what it must be and one per experiment."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| field | must be |"))
    cells = lambda line: [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
    _, _, *names = cells(lines[start])
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        field, _, *defaults = cells(line)
        for name, default in zip(names, defaults, strict=True):
            if default:
                table[field, name] = default if default == "required" else json.loads(default)
    return table


def test_readme_lists_every_config_field_and_default():
    expected = {
        (path, name): "required" if default is experiments._REQUIRED else default
        for path, _, defaults in experiments._FIELDS
        for name, default in defaults.items()
    }
    assert _readme_fields() == expected


class _ReadRecorder(dict):
    """Settings that record the dotted path of each leaf read from them."""

    def __init__(self, tree: dict, reads: set, path: str = ""):
        super().__init__(tree)
        self.reads, self.path = reads, path

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return _ReadRecorder(value, self.reads, f"{self.path}{key}.")
        self.reads.add(self.path + key)
        return value

    def __iter__(self):  # so that {**d} and f(**d) read through __getitem__
        return super().__iter__()


def _leaf_paths(tree: dict, path: str = "") -> set:
    paths = set()
    for key, value in tree.items():
        if isinstance(value, dict):
            paths |= _leaf_paths(value, f"{path}{key}.")
        else:
            paths.add(path + key)
    return paths


def test_read_recorder_sees_reads_through_unpacking():
    reads = set()
    settings = _ReadRecorder({"a": 1, "b": {"c": 2, "d": 3}, "e": 4}, reads)
    {**settings["b"]}
    json.dumps(copy.deepcopy(settings))  # as the bundle writer does
    assert reads == {"b.c", "b.d"}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_resolved_field_is_read(tmp_path, experiment):
    config = ExperimentConfig({"experiment": experiment, "seed": 0, "train": {"max_epochs": 1}})
    fields, reads = _leaf_paths(config.settings), set()
    config.settings = _ReadRecorder(config.settings, reads)
    run_experiment(config, tmp_path)
    assert fields - reads == set()


# A value of each Born train field other than the one _train_outcome runs with
_TRAIN_CHANGES = {
    "optimizer": "spsa",
    "initial_lr": 0.02,
    "lr_halving_period": 1,
    "batches_per_epoch": 3,
    "batch_size": 64,
    "max_epochs": 1,
    "spsa_epochs": 1,
    "bandwidths": [1.0],
}


def _train_outcome(experiment, out, **train):
    """The traces (without seconds) and the checkpoint theta, if there is
    one, of a 2-epoch run of 2 batches an epoch with train set as given."""
    config = ExperimentConfig({"experiment": experiment, "seed": 0,
                               "train": {"max_epochs": 2, "batches_per_epoch": 2, **train}})
    save_model, trace, _, _ = experiments._HOOKS[experiment](config)
    if save_model is None:  # exp-blocks: one trace per variant
        return [trace_to_json(t) for t in trace], None
    save_model(out)
    return [trace_to_json(trace)], json.loads((out / "checkpoint.json").read_text())["theta"]


def test_train_config_holds_the_train_fields_the_seed_and_the_kernel():
    # the bandwidths reach it as its kernel; with no other field, the test
    # below, which changes every train field, covers every TrainConfig field
    train_fields = {
        path.removeprefix("train.") for path, _, _ in experiments._FIELDS if path.startswith("train.")
    }
    expected = train_fields - {"bandwidths"} | {"seed", "kernel"}
    assert {f.name for f in dataclasses.fields(TrainConfig)} == expected


@pytest.mark.parametrize("experiment", experiments._BORN_EXPERIMENTS)
def test_every_born_train_field_changes_training(tmp_path, experiment):
    # a field that is read but changes nothing would pass the read check
    # above, so each one is set in turn and must move the trace or theta
    train_fields = {
        path.removeprefix("train.") for path, _, defaults in experiments._FIELDS
        if path.startswith("train.") and experiment in defaults
    }
    assert train_fields == set(_TRAIN_CHANGES)
    base = _train_outcome(experiment, tmp_path)
    unchanged = [
        name for name, value in _TRAIN_CHANGES.items()
        if _train_outcome(experiment, tmp_path, **{name: value}) == base
    ]
    assert unchanged == []


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


def test_compare_report_diffs_matrices_entry_by_entry():
    def report(r01):
        matrix = [[1.0, r01], [r01, 1.0]]
        return {"experiment": "exp-multi", "metrics": {"pearson_generated": matrix,
                                                       "ranking": ["a", "b"]}}

    diff, regression = compare_report(report(0.4), report(-0.9))
    assert diff == {
        "pearson_generated.0.1": pytest.approx(-1.3),
        "pearson_generated.1.0": pytest.approx(-1.3),
    }
    assert regression


@pytest.mark.parametrize("tv", [float("nan"), float("inf"), -float("inf")])
def test_compare_report_flags_a_delta_that_is_not_finite(tv):
    a = {"experiment": "exp-1d", "metrics": {"tv": 0.05}}
    b = {"experiment": "exp-1d", "metrics": {"tv": tv}}
    diff, regression = compare_report(a, b, tolerance=1e300)
    assert set(diff) == {"tv"}
    assert regression


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.01, True, "0.05", None])
def test_compare_report_rejects_a_bad_tolerance(tolerance):
    report = {"experiment": "exp-1d", "metrics": {"tv": 0.05}}
    with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
        compare_report(report, report, tolerance)


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


@pytest.mark.parametrize(
    "bad",
    [[], "report", None, {"experiment": "exp-1d"}, {"experiment": "exp-1d", "metrics": [0.1]}],
    ids=["list", "string", "null", "no-metrics", "metrics-not-an-object"],
)
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_compare_report_rejects_a_report_that_is_not_an_object_with_metrics(bad, first):
    good = {"experiment": "exp-1d", "metrics": {"tv": 0.1}}
    pair = (bad, good) if first else (good, bad)
    with pytest.raises(ValueError, match="not a JSON object with a metrics object"):
        compare_report(*pair)


def test_experiment_names():
    assert set(EXPERIMENTS) == {
        "exp-1d",
        "exp-multi",
        "exp-cond",
        "exp-blocks",
        "exp-noise",
        "exp-gmmd",
    }
