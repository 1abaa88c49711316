"""Experiment definitions and the report bundle writer."""
from __future__ import annotations

import copy
import datetime
import json
import subprocess
from pathlib import Path
from typing import Optional

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
from .distributions import DiscreteDistribution, marginal, sample
from .metrics import KernelConfig, pearson_correlation, total_variance
from .noise import NoiseConfig, apply_readout_noise, estimate_confusion_matrix, mitigate_readout
from .optimize import SpsaSettings, TrainConfig, init_parameters, trace_to_csv, trace_to_json, train

__all__ = ["ExperimentConfig", "run_experiment", "compare_report", "EXPERIMENTS"]

EXPERIMENTS = ("exp-1d", "exp-multi", "exp-cond", "exp-blocks", "exp-noise")

_DEFAULTS = {
    "common": {
        "data": {
            "source": "synthetic",
            "n_events": 10240,
            "condition": 50.0,
            "path": None,
        },
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
        "sampling": {"n_shots": 5120, "repetitions": 10},
    },
    "exp-1d": {
        "circuit": {"n_qubits": 4},
        "train": {"max_epochs": 70},
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
    },
    "exp-cond": {
        "data": {"n_events": 10240, "held_out": 125.0},
        "circuit": {"n_qubits": 3, "n_layers": 4},
        "train": {"max_epochs": 30},
    },
    "exp-blocks": {
        "data": {"condition": 125.0},
        "circuit": {"n_registers": 3, "qubits_per_register": 3, "n_repetitions": 4},
        "train": {"max_epochs": 100},
    },
    "exp-noise": {
        "circuit": {"n_qubits": 4},
        "train": {"max_epochs": 70},
        "noise": {
            "readout_flip_prob": 0.029,
            "cnot_depol_prob": 0.0,
            "calibration_shots": 100000,
            "n_trajectories": 1000,
        },
    },
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


def _merge_defaults(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = _merge_defaults(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = value
    return out


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
        defaults = _merge_defaults(_DEFAULTS["common"], _DEFAULTS[self.experiment])
        body = {
            k: v
            for k, v in raw.items()
            if k not in ("experiment", "seed", "output_dir")
        }
        self.settings = _merge(defaults, body)
        if self.settings["data"]["source"] not in ("synthetic", "csv"):
            raise ConfigError("data.source must be 'synthetic' or 'csv'")
        if self.settings["data"]["source"] == "csv":
            path = self.settings["data"].get("path")
            if not path or not Path(path).exists():
                raise ConfigError(f"data.path does not exist: {path!r}")

    def resolved(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            **copy.deepcopy(self.settings),
        }

    def train_config(self, **overrides) -> TrainConfig:
        t = self.settings["train"]
        kwargs = dict(
            optimizer=t["optimizer"],
            initial_lr=t["initial_lr"],
            lr_halving_period=t["lr_halving_period"],
            batches_per_epoch=t["batches_per_epoch"],
            batch_size=t["batch_size"],
            max_epochs=t["max_epochs"],
            seed=self.seed,
            spsa=SpsaSettings(),
            spsa_epochs=t["spsa_epochs"],
            kernel=KernelConfig(tuple(t["bandwidths"])),
            sample_batches=t["sample_batches"],
        )
        kwargs.update(overrides)
        return TrainConfig(**kwargs)


def _events(config: ExperimentConfig, condition: float, seed_offset: int = 0):
    d = config.settings["data"]
    if d["source"] == "csv":
        events = [e for e in load_csv(d["path"]) if e.e_in == condition]
        if not events:
            raise ConfigError(f"no events with e_in == {condition} in {d['path']}")
        return events
    return synthesize_mfc(
        d["n_events"], condition, DEFAULT_CORRELATION, config.seed + seed_offset
    )


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


def _sampled_histogram(dist: DiscreteDistribution, n_shots, repetitions, seed):
    """Per-bin empirical frequency mean and std over sampling repetitions."""
    freqs = np.empty((repetitions, len(dist.probs)))
    for r in range(repetitions):
        draws = sample(dist, n_shots, seed + r)
        freqs[r] = np.bincount(draws, minlength=len(dist.probs)) / n_shots
    return freqs.mean(axis=0), freqs.std(axis=0)


def _write_histogram_csv(path, binning, feature, target, model_dist, sampling, seed):
    import csv as _csv

    mean, std = _sampled_histogram(
        model_dist, sampling["n_shots"], sampling["repetitions"], seed
    )
    centers = binning.bin_centers(feature)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
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
            writer.writerow(
                [
                    i,
                    repr(float(centers[i])),
                    repr(float(target.probs[i])),
                    repr(float(model_dist.probs[i])),
                    repr(float(mean[i])),
                    repr(float(std[i])),
                    repr(float(ratio)),
                ]
            )


def _prepare_single_condition(config: ExperimentConfig, n_bins_per_feature, features):
    """Synthesize/ingest one-condition data, split, preprocess, bin."""
    condition = config.settings["data"]["condition"]
    events = _events(config, condition)
    train_events, test_events = train_test_split(events, config.seed)
    train_all, params = preprocess(train_events)
    test_all = apply_preprocess(test_events, params)
    train_f = train_all[:, features]
    test_f = test_all[:, features]
    binning = BinningSpec.from_training_data(train_f, n_bins_per_feature)
    return {
        "condition": condition,
        "params": params,
        "binning": binning,
        "train_features": train_f,
        "test_features": test_f,
        "train_dist": discretize(train_f, binning),
        "val_dist": discretize(test_f, binning),
    }


def _run_exp_1d(config: ExperimentConfig, out: Path) -> dict:
    prep = _prepare_single_condition(config, [16], [0])
    circuit = build_1d_rzz_ansatz(config.settings["circuit"]["n_qubits"])
    model = BornModel(
        circuit,
        init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed),
    )
    trained, trace = train(
        model, prep["train_dist"], config.train_config(), prep["val_dist"]
    )
    dist = model_distribution(trained)
    tv = total_variance(dist, prep["val_dist"])
    trace_to_csv(trace, out / "trace.csv")
    save_checkpoint(trained, out / "checkpoint.json", {"experiment": "exp-1d"})
    _write_histogram_csv(
        out / "histogram_e_out.csv",
        prep["binning"],
        0,
        prep["val_dist"],
        dist,
        config.settings["sampling"],
        config.seed,
    )
    return {
        "tv": tv,
        "final_val_mmd": trace[-1].val_loss,
        "best_val_mmd": min(r.val_loss for r in trace),
        "trace": trace_to_json(trace, include_seconds=False),
    }


def _block_choice(block: dict) -> CorrelationBlockChoice:
    return CorrelationBlockChoice(block["connectivity"], block["depth_pairs"], block["style"])


def _multivariate_prep(config: ExperimentConfig):
    return _prepare_single_condition(config, [8, 8, 8], [0, 1, 2])


def _generated_pearson(model, binning, params, n_samples, seed):
    """Pearson matrix of sampled events mapped back to physical units."""
    dist = model_distribution(model)
    draws = sample(dist, n_samples, seed)
    coords = dist.bin_coordinates()[draws]
    values = np.column_stack(
        [binning.bin_centers(j)[coords[:, j].astype(int)] for j in range(coords.shape[1])]
    )
    return pearson_correlation(inverse_preprocess(values, params))


def _run_exp_multi(config: ExperimentConfig, out: Path) -> dict:
    prep = _multivariate_prep(config)
    c = config.settings["circuit"]
    circuit = build_multivariate(
        c["n_registers"], c["qubits_per_register"], c["n_repetitions"], _block_choice(c["block"])
    )
    model = BornModel(
        circuit,
        init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed),
    )
    trained, trace = train(
        model, prep["train_dist"], config.train_config(), prep["val_dist"]
    )
    dist = model_distribution(trained)
    names = ("e_out", "pt", "eta")
    tv_per_feature = {
        name: total_variance(marginal(dist, j), marginal(prep["val_dist"], j))
        for j, name in enumerate(names)
    }
    corr_generated = _generated_pearson(
        trained, prep["binning"], prep["params"], 100000, config.seed
    )
    corr_data = pearson_correlation(prep["binning"].bin_indices(prep["test_features"]))
    trace_to_csv(trace, out / "trace.csv")
    save_checkpoint(trained, out / "checkpoint.json", {"experiment": "exp-multi"})
    for j, name in enumerate(names):
        _write_histogram_csv(
            out / f"histogram_{name}.csv",
            prep["binning"],
            j,
            marginal(prep["val_dist"], j),
            marginal(dist, j),
            config.settings["sampling"],
            config.seed + j,
        )
    return {
        "tv_per_feature": tv_per_feature,
        "pearson_generated": corr_generated.tolist(),
        "pearson_data": corr_data.tolist(),
        "pearson_target": DEFAULT_CORRELATION.tolist(),
        "final_val_mmd": trace[-1].val_loss,
        "best_val_mmd": min(r.val_loss for r in trace),
        "trace": trace_to_json(trace, include_seconds=False),
    }


def _run_exp_blocks(config: ExperimentConfig, out: Path) -> dict:
    prep = _multivariate_prep(config)
    c = config.settings["circuit"]
    results = {}
    for i, choice in enumerate(all_block_choices()):
        circuit = build_multivariate(
            c["n_registers"], c["qubits_per_register"], c["n_repetitions"], choice
        )
        model = BornModel(
            circuit,
            init_parameters(
                circuit.n_parameters, config.settings["init_scheme"], config.seed
            ),
        )
        trained, trace = train(
            model,
            prep["train_dist"],
            config.train_config(seed=config.seed + i),
            prep["val_dist"],
        )
        trace_to_csv(trace, out / f"trace_{i}.csv")
        results[choice.label] = {
            "best_val_mmd": min(r.val_loss for r in trace),
            "final_val_mmd": trace[-1].val_loss,
            "tv": total_variance(model_distribution(trained), prep["val_dist"]),
        }
    ranked = sorted(results, key=lambda k: results[k]["best_val_mmd"])
    return {"blocks": results, "ranking": ranked}


def _prepare_conditional(config: ExperimentConfig):
    held_out = config.settings["data"]["held_out"]
    conditions = [c for c in CONDITION_VALUES]
    train_conditions = [c for c in conditions if c != held_out]
    per_cond_events = {
        c: _events(config, c, seed_offset=int(c)) for c in conditions
    }
    splits = {c: train_test_split(ev, config.seed) for c, ev in per_cond_events.items()}
    pooled_train = [e for c in train_conditions for e in splits[c][0]]
    _, params = preprocess(pooled_train)
    energy = lambda evs: apply_preprocess(evs, params)[:, [0]]
    pooled_features = energy(pooled_train)
    binning = BinningSpec.from_training_data(pooled_features, [8])
    train_dists = {c: discretize(energy(splits[c][0]), binning) for c in train_conditions}
    val_dists = {c: discretize(energy(splits[c][1]), binning) for c in train_conditions}
    held_out_dist = discretize(energy(splits[held_out][1]), binning)
    return {
        "params": params,
        "binning": binning,
        "held_out": held_out,
        "train_conditions": train_conditions,
        "train_dists": train_dists,
        "val_dists": val_dists,
        "held_out_dist": held_out_dist,
    }


def _run_exp_cond(config: ExperimentConfig, out: Path) -> dict:
    prep = _prepare_conditional(config)
    c = config.settings["circuit"]
    circuit = build_conditional(c["n_qubits"], c["n_layers"])
    model = BornModel(
        circuit,
        init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed),
        condition_range=(min(CONDITION_VALUES), max(CONDITION_VALUES)),
    )
    trained, trace = train(
        model, prep["train_dists"], config.train_config(), prep["val_dists"]
    )
    tv_per_condition = {
        str(cond): total_variance(
            model_distribution(trained, cond), prep["val_dists"][cond]
        )
        for cond in prep["train_conditions"]
    }
    held_dist = model_distribution(trained, prep["held_out"])
    tv_held_out = total_variance(held_dist, prep["held_out_dist"])
    trace_to_csv(trace, out / "trace.csv")
    save_checkpoint(trained, out / "checkpoint.json", {"experiment": "exp-cond"})
    for cond, target in (
        (100.0, prep["val_dists"].get(100.0)),
        (150.0, prep["val_dists"].get(150.0)),
        (prep["held_out"], prep["held_out_dist"]),
    ):
        if target is None:
            continue
        _write_histogram_csv(
            out / f"histogram_{int(cond)}gev.csv",
            prep["binning"],
            0,
            target,
            model_distribution(trained, cond),
            config.settings["sampling"],
            config.seed + int(cond),
        )
    return {
        "tv_per_condition": tv_per_condition,
        "tv_held_out": tv_held_out,
        "held_out_condition": prep["held_out"],
        "final_val_mmd": trace[-1].val_loss,
        "trace": trace_to_json(trace, include_seconds=False),
    }


def _run_exp_noise(config: ExperimentConfig, out: Path) -> dict:
    prep = _prepare_single_condition(config, [16], [0])
    circuit = build_1d_rzz_ansatz(config.settings["circuit"]["n_qubits"])
    model = BornModel(
        circuit,
        init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed),
    )
    trained, trace = train(
        model, prep["train_dist"], config.train_config(), prep["val_dist"]
    )
    n = config.settings["noise"]
    noise = NoiseConfig(
        readout_flip_prob=n["readout_flip_prob"],
        cnot_depol_prob=n["cnot_depol_prob"],
        seed=config.seed,
        n_trajectories=n["n_trajectories"],
    )
    exact = model_distribution(trained)
    noisy = apply_readout_noise(exact, noise)
    confusion = estimate_confusion_matrix(
        circuit.n_qubits, noise, n["calibration_shots"]
    )
    mitigated = mitigate_readout(noisy, confusion)
    trace_to_csv(trace, out / "trace.csv")
    save_checkpoint(trained, out / "checkpoint.json", {"experiment": "exp-noise"})
    target = prep["val_dist"]
    return {
        "tv_exact": total_variance(exact, target),
        "tv_noisy": total_variance(noisy, target),
        "tv_mitigated": total_variance(mitigated, target),
        "tv_mitigated_vs_exact": total_variance(mitigated, exact),
        "trace": trace_to_json(trace, include_seconds=False),
    }


_RUNNERS = {
    "exp-1d": _run_exp_1d,
    "exp-multi": _run_exp_multi,
    "exp-cond": _run_exp_cond,
    "exp-blocks": _run_exp_blocks,
    "exp-noise": _run_exp_noise,
}


def run_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Run one experiment, writing the full report bundle to output_dir."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = config.resolved()
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    metrics = _RUNNERS[config.experiment](config, out)
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
