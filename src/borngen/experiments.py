"""Experiment definitions and the report bundle writer.

Each experiment is a hook: it prepares its data, picks its circuit, fits
through `_fit` and computes its metrics. `run_experiment` writes the bundle.
"""
from __future__ import annotations

import copy
import csv
import datetime
import json
import subprocess
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .born import BornModel, model_distribution, save_checkpoint
from .circuits import (
    CorrelationBlockChoice,
    all_block_choices,
    build_1d_rzz_ansatz,
    build_conditional,
    build_multivariate,
)
from .data import (
    CONDITION_VALUES,
    BinningSpec,
    DEFAULT_CORRELATION,
    apply_preprocess,
    discretize,
    inverse_preprocess,
    load_csv,
    preprocess,
    synthesize_mfc,
    train_test_split,
)
from .distributions import marginal, sample
from .metrics import KernelConfig, pearson_correlation, total_variance
from .noise import NoiseConfig, apply_readout_noise, estimate_confusion_matrix, mitigate_readout
from .optimize import TrainConfig, init_parameters, trace_to_csv, trace_to_json, train

__all__ = ["ExperimentConfig", "run_experiment", "compare_report", "EXPERIMENTS"]

EXPERIMENTS = ("exp-1d", "exp-multi", "exp-cond", "exp-blocks", "exp-noise")

_COMMON = {
    "data": {"source": "synthetic", "n_events": 10240, "path": None},
    "train": {
        "optimizer": "adam",
        "initial_lr": 0.01,
        "lr_halving_period": 20,
        "batches_per_epoch": 10,
        "batch_size": 512,
        "max_epochs": 70,
        "spsa_epochs": 10,
        "sample_batches": False,
        "bandwidths": [0.01, 0.1, 1.0, 10.0, 100.0],
    },
    "init_scheme": "small_normal",
}
_SAMPLING = {"n_shots": 5120, "repetitions": 10}

# Each experiment's defaults name exactly the fields it reads, so that any
# other field is rejected rather than ignored.
_DEFAULTS = {
    "exp-1d": {
        "data": {"condition": 50.0},
        "circuit": {"n_qubits": 4},
        "sampling": _SAMPLING,
    },
    "exp-multi": {
        "data": {"condition": 125.0},
        "circuit": {
            "n_registers": 3,
            "qubits_per_register": 3,
            "n_repetitions": 4,
            "block": {"connectivity": "linear", "depth_pairs": "first_only", "style": "hh_cx"},
        },
        "train": {"max_epochs": 100},
        "sampling": _SAMPLING,
    },
    "exp-cond": {
        "data": {"held_out": 125.0},
        "circuit": {"n_qubits": 3, "n_layers": 4},
        "train": {"max_epochs": 30},
        "sampling": _SAMPLING,
    },
    "exp-blocks": {
        "data": {"condition": 125.0},
        "circuit": {"n_registers": 3, "qubits_per_register": 3, "n_repetitions": 4},
        "train": {"max_epochs": 100},
    },
    "exp-noise": {
        "data": {"condition": 50.0},
        "circuit": {"n_qubits": 4},
        "noise": {"readout_flip_prob": 0.029, "calibration_shots": 100000},
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _merge(base: dict, override: dict, path: str = "", extend: bool = False) -> dict:
    """Deep-merge override into a copy of base. Unless extend is set, a key
    that base lacks is an error naming its dotted path."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out and not extend:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, where, extend)
        else:
            out[key] = copy.deepcopy(value)
    return out


@contextmanager
def _field(path: str):
    """Re-raise a TypeError or ValueError as a ConfigError naming path."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


class ExperimentConfig:
    """Validated experiment configuration with defaults filled in."""

    def __init__(self, raw: dict):
        if "experiment" not in raw:
            raise ConfigError("missing required field 'experiment'")
        if raw["experiment"] not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {raw['experiment']!r}")
        if "seed" not in raw:
            raise ConfigError("missing required field 'seed'")
        self.experiment = raw["experiment"]
        self.seed = int(raw["seed"])
        self.output_dir = raw.get("output_dir")
        defaults = _merge(_COMMON, _DEFAULTS[self.experiment], extend=True)
        body = {
            k: v
            for k, v in raw.items()
            if k not in ("experiment", "seed", "output_dir")
        }
        self.settings = _merge(defaults, body)
        data = self.settings["data"]
        if data["source"] not in ("synthetic", "csv"):
            raise ConfigError("data.source must be 'synthetic' or 'csv'")
        if data["source"] == "csv":
            path = data["path"]
            if not path or not Path(path).exists():
                raise ConfigError(f"data.path does not exist: {path!r}")
        if "held_out" in data and data["held_out"] not in CONDITION_VALUES:
            raise ConfigError(
                f"data.held_out must be one of {CONDITION_VALUES}, got {data['held_out']!r}"
            )
        # build every settings object now, so that a bad value fails here
        with _field("train"):
            self.train_config()
        with _field("init_scheme"):
            init_parameters(0, self.settings["init_scheme"])
        if "block" in self.settings["circuit"]:
            with _field("circuit.block"):
                CorrelationBlockChoice(**self.settings["circuit"]["block"])
        if "noise" in self.settings:
            with _field("noise.readout_flip_prob"):
                self.noise_config()
            shots = self.settings["noise"]["calibration_shots"]
            if not isinstance(shots, int) or shots < 1:
                raise ConfigError(f"noise.calibration_shots must be an integer >= 1, not {shots!r}")

    def resolved(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            **copy.deepcopy(self.settings),
        }

    def train_config(self, **overrides) -> TrainConfig:
        t = dict(self.settings["train"])
        t["kernel"] = KernelConfig(tuple(t.pop("bandwidths")))
        return TrainConfig(**{**t, "seed": self.seed, **overrides})

    def noise_config(self) -> NoiseConfig:
        flip = self.settings["noise"]["readout_flip_prob"]
        return NoiseConfig(readout_flip_prob=flip, seed=self.seed)


def _near(e_in: np.ndarray, condition: float) -> np.ndarray:
    """math.isclose(e, condition, rel_tol=1e-9, abs_tol=1e-9) for each e in
    e_in: |e - condition| <= max(1e-9 * max(|e|, |condition|), 1e-9). As in
    math.isclose, an infinity matches only itself and NaN matches nothing."""
    tol = np.maximum(1e-9 * np.maximum(np.abs(e_in), abs(condition)), 1e-9)
    return (e_in == condition) | ((np.abs(e_in - condition) <= tol) & np.isfinite(tol))


def _events(config: ExperimentConfig, seed_offsets: dict) -> dict:
    """(n, 4) events for each condition in seed_offsets, which maps a
    condition to the seed offset of its synthetic events. A CSV source is
    read once and split on e_in."""
    d = config.settings["data"]
    if d["source"] != "csv":
        return {
            cond: synthesize_mfc(d["n_events"], cond, DEFAULT_CORRELATION, config.seed + offset)
            for cond, offset in seed_offsets.items()
        }
    events = load_csv(d["path"])
    selected = {cond: events[_near(events[:, 3], cond)] for cond in seed_offsets}
    for cond, picked in selected.items():
        if not len(picked):
            raise ConfigError(f"no events with e_in == {cond} (to 1e-9) in {d['path']}")
    return selected


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if out.returncode == 0:
            return f"{__version__}+g{out.stdout.strip()}"
    except OSError:
        pass
    return __version__


def _write_histogram_csv(path, sampling, binning, feature, target, model_dist, seed):
    """Target and model bin probabilities, with the per-bin mean and std of
    the empirical frequency over sampling repetitions."""
    n_shots, repetitions = sampling["n_shots"], sampling["repetitions"]
    freqs = np.empty((repetitions, len(model_dist.probs)))
    for r in range(repetitions):
        draws = sample(model_dist, n_shots, seed + r)
        freqs[r] = np.bincount(draws, minlength=len(model_dist.probs)) / n_shots
    mean, std = freqs.mean(axis=0), freqs.std(axis=0)
    centers = binning.bin_centers(feature)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "bin_index",
                "bin_center",
                "target_probability",
                "model_probability",
                "sampled_mean",
                "sampled_std",
                "ratio",
            ]
        )
        for i in range(len(centers)):
            ratio = mean[i] / target.probs[i] if target.probs[i] > 0 else float("inf")
            values = (centers[i], target.probs[i], model_dist.probs[i], mean[i], std[i], ratio)
            writer.writerow([i, *(repr(float(v)) for v in values)])


def _single_condition(config: ExperimentConfig, n_bins_per_feature, features):
    """One condition's events, split, preprocessed and binned: the train and
    validation distributions, the binning, the preprocessing parameters and
    the validation features."""
    condition = config.settings["data"]["condition"]
    events = _events(config, {condition: 0})[condition]
    train_events, test_events = train_test_split(events, config.seed)
    train_all, params = preprocess(train_events)
    test_all = apply_preprocess(test_events, params)
    train_f = train_all[:, features]
    test_f = test_all[:, features]
    binning = BinningSpec.from_training_data(train_f, n_bins_per_feature)
    return discretize(train_f, binning), discretize(test_f, binning), binning, params, test_f


def _fit(config, circuit, target, val_target, seed_offset=0, condition_range=None):
    """Initialise a Born model on circuit and train it on target."""
    theta = init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed)
    model = BornModel(circuit, theta, condition_range=condition_range)
    return train(model, target, config.train_config(seed=config.seed + seed_offset), val_target)


def _val_mmd(trace) -> dict:
    return {
        "final_val_mmd": trace[-1].val_loss,
        "best_val_mmd": min(r.val_loss for r in trace),
    }


# Each hook returns (trained, trace, metrics, histograms). A histogram is
# (name, binning, feature, target, model distribution, sampling seed).


def _exp_1d(config: ExperimentConfig):
    train_dist, val_dist, binning, _, _ = _single_condition(config, [16], [0])
    circuit = build_1d_rzz_ansatz(config.settings["circuit"]["n_qubits"])
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    dist = model_distribution(trained)
    metrics = {"tv": total_variance(dist, val_dist), **_val_mmd(trace)}
    return trained, trace, metrics, [("e_out", binning, 0, val_dist, dist, config.seed)]


def _exp_multi(config: ExperimentConfig):
    train_dist, val_dist, binning, params, test_f = _single_condition(
        config, [8, 8, 8], [0, 1, 2]
    )
    c = config.settings["circuit"]
    circuit = build_multivariate(
        c["n_registers"],
        c["qubits_per_register"],
        c["n_repetitions"],
        CorrelationBlockChoice(**c["block"]),
    )
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    dist = model_distribution(trained)
    names = ("e_out", "pt", "eta")
    # Pearson matrix of sampled events mapped back to physical units
    coords = dist.bin_coordinates()[sample(dist, 100000, config.seed)]
    values = np.column_stack(
        [binning.bin_centers(j)[coords[:, j].astype(int)] for j in range(coords.shape[1])]
    )
    metrics = {
        "tv_per_feature": {
            name: total_variance(marginal(dist, j), marginal(val_dist, j))
            for j, name in enumerate(names)
        },
        "pearson_generated": pearson_correlation(inverse_preprocess(values, params)).tolist(),
        "pearson_data": pearson_correlation(binning.bin_indices(test_f)).tolist(),
        "pearson_target": DEFAULT_CORRELATION.tolist(),
        **_val_mmd(trace),
    }
    histograms = [
        (name, binning, j, marginal(val_dist, j), marginal(dist, j), config.seed + j)
        for j, name in enumerate(names)
    ]
    return trained, trace, metrics, histograms


def _exp_blocks(config: ExperimentConfig):
    """Every correlation-block variant, ranked by best validation MMD. The
    trace is one per variant, and there is no single trained model."""
    train_dist, val_dist, _, _, _ = _single_condition(config, [8, 8, 8], [0, 1, 2])
    c = config.settings["circuit"]
    results, traces = {}, []
    for i, choice in enumerate(all_block_choices()):
        circuit = build_multivariate(
            c["n_registers"], c["qubits_per_register"], c["n_repetitions"], choice
        )
        trained, trace = _fit(config, circuit, train_dist, val_dist, seed_offset=i)
        traces.append(trace)
        results[choice.label] = {
            **_val_mmd(trace),
            "tv": total_variance(model_distribution(trained), val_dist),
        }
    ranked = sorted(results, key=lambda k: results[k]["best_val_mmd"])
    return None, traces, {"blocks": results, "ranking": ranked}, []


def _exp_cond(config: ExperimentConfig):
    held_out = config.settings["data"]["held_out"]
    train_conditions = [cond for cond in CONDITION_VALUES if cond != held_out]
    events = _events(config, {cond: int(cond) for cond in CONDITION_VALUES})
    splits = {cond: train_test_split(events[cond], config.seed) for cond in CONDITION_VALUES}
    pooled_train = np.concatenate([splits[cond][0] for cond in train_conditions])
    _, params = preprocess(pooled_train)
    energy = lambda evs: apply_preprocess(evs, params)[:, [0]]
    binning = BinningSpec.from_training_data(energy(pooled_train), [8])
    train_dists = {cond: discretize(energy(splits[cond][0]), binning) for cond in train_conditions}
    val_dists = {cond: discretize(energy(splits[cond][1]), binning) for cond in train_conditions}
    held_out_dist = discretize(energy(splits[held_out][1]), binning)
    c = config.settings["circuit"]
    trained, trace = _fit(
        config,
        build_conditional(c["n_qubits"], c["n_layers"]),
        train_dists,
        val_dists,
        condition_range=(min(CONDITION_VALUES), max(CONDITION_VALUES)),
    )
    dists = {cond: model_distribution(trained, cond) for cond in CONDITION_VALUES}
    metrics = {
        "tv_per_condition": {
            str(cond): total_variance(dists[cond], val_dists[cond]) for cond in train_conditions
        },
        "tv_held_out": total_variance(dists[held_out], held_out_dist),
        "held_out_condition": held_out,
        "final_val_mmd": trace[-1].val_loss,
    }
    targets = {cond: val_dists[cond] for cond in (100.0, 150.0) if cond in val_dists}
    targets[held_out] = held_out_dist
    histograms = [
        (f"{int(cond)}gev", binning, 0, target, dists[cond], config.seed + int(cond))
        for cond, target in targets.items()
    ]
    return trained, trace, metrics, histograms


def _exp_noise(config: ExperimentConfig):
    train_dist, val_dist, _, _, _ = _single_condition(config, [16], [0])
    circuit = build_1d_rzz_ansatz(config.settings["circuit"]["n_qubits"])
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    n = config.settings["noise"]
    noise = config.noise_config()
    exact = model_distribution(trained)
    noisy = apply_readout_noise(exact, noise)
    confusion = estimate_confusion_matrix(circuit.n_qubits, noise, n["calibration_shots"])
    mitigated = mitigate_readout(noisy, confusion)
    metrics = {
        "tv_exact": total_variance(exact, val_dist),
        "tv_noisy": total_variance(noisy, val_dist),
        "tv_mitigated": total_variance(mitigated, val_dist),
        "tv_mitigated_vs_exact": total_variance(mitigated, exact),
    }
    return trained, trace, metrics, []


_HOOKS = {
    "exp-1d": _exp_1d,
    "exp-multi": _exp_multi,
    "exp-cond": _exp_cond,
    "exp-blocks": _exp_blocks,
    "exp-noise": _exp_noise,
}


def run_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Run one experiment, writing the full report bundle to output_dir."""
    trained, trace, metrics, histograms = _HOOKS[config.experiment](config)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = config.resolved()
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    if trained is None:  # exp-blocks: one trace per variant, no single model
        for i, variant_trace in enumerate(trace):
            trace_to_csv(variant_trace, out / f"trace_{i}.csv")
    else:
        trace_to_csv(trace, out / "trace.csv")
        save_checkpoint(trained, out / "checkpoint.json", {"experiment": config.experiment})
        metrics["trace"] = trace_to_json(trace, include_seconds=False)
    for name, *columns in histograms:
        _write_histogram_csv(out / f"histogram_{name}.csv", config.settings["sampling"], *columns)
    report = {
        "experiment": config.experiment,
        "seed": config.seed,
        "version": _version_string(),
        "config": resolved,
        "metrics": metrics,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    with open(out / "metadata.json", "w") as fh:
        json.dump(
            {"completed_at": datetime.datetime.now().isoformat()}, fh, indent=2
        )
    return report


def _flatten_metrics(metrics: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in metrics.items():
        if key == "trace":
            continue
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_metrics(value, name + "."))
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def compare_report(report_a: dict, report_b: dict, tolerance: float = 0.05):
    """Per-metric deltas between two reports of the same experiment type.

    Returns (diff, regression) where regression flags any scalar metric
    whose absolute delta exceeds the tolerance.
    """
    if report_a.get("experiment") != report_b.get("experiment"):
        raise ValueError("reports come from different experiment types")
    a = _flatten_metrics(report_a["metrics"])
    b = _flatten_metrics(report_b["metrics"])
    if set(a) != set(b):
        missing = sorted(set(a) ^ set(b))
        raise ValueError(f"structural mismatch between reports: {missing}")
    diff = {k: b[k] - a[k] for k in sorted(a) if b[k] != a[k]}
    regression = any(abs(v) > tolerance for v in diff.values())
    return diff, regression
