"""Experiment definitions and the report bundle writer.

Each experiment is a hook: it builds its model, prepares its data, trains
(a Born machine through `_fit`, or the classical baseline's MLP) and computes
its metrics. `run_experiment` writes the bundle.
"""
from __future__ import annotations

import copy
import csv
import datetime
import functools
import json
import math
import subprocess
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import GmmdConfig, MlpSpec, forward, save_weights, train_gmmd
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
    FEATURE_NAMES,
    _preprocessed_columns,
    _split_by,
    _split_order,
    discretize,
    inverse_preprocess,
    load_csv,
    preprocess,
    synthesize_mfc,
)
# perfbench/tracer.py times the data.preprocess span through this name
from .data import apply_preprocess  # noqa: F401
from .distributions import marginal, sample
from .metrics import (
    PAPER_BANDWIDTHS,
    KernelConfig,
    _is_positive_real,
    pearson_correlation,
    total_variance,
)
from .noise import NoiseConfig, apply_readout_noise, estimate_confusion_matrix, mitigate_readout
from .optimize import TrainConfig, init_parameters, trace_to_csv, trace_to_json, train
from .sim import _is_count

__all__ = ["ExperimentConfig", "run_experiment", "compare_report", "EXPERIMENTS"]

EXPERIMENTS = ("exp-1d", "exp-multi", "exp-cond", "exp-blocks", "exp-noise", "exp-gmmd")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


_REQUIRED = object()  # the default of a field that a config must set
_BORN_EXPERIMENTS = ("exp-1d", "exp-multi", "exp-cond", "exp-blocks", "exp-noise")
_SAMPLED = ("exp-1d", "exp-multi", "exp-cond")  # the experiments that write histograms
_BINS_1D = 16  # the bins of the 1D target of exp-1d, exp-noise and exp-gmmd


def _must(test, wanted: str):
    """A check that a value passes test."""

    def check(value):
        if not test(value):
            raise ConfigError(f"must be {wanted}, not {value!r}")

    return check


def _count(minimum: int):
    return _must(lambda value: _is_count(value, minimum), f"an integer >= {minimum}")


def _widths(value):
    if not isinstance(value, list):
        raise ConfigError(f"must be a list, not {value!r}")
    for width in value:
        _count(1)(width)


def _schedule(train: dict) -> TrainConfig | GmmdConfig:
    """The Born machine's TrainConfig, or the GmmdConfig of the classical
    baseline's train section, which has no kernel bandwidths."""
    if "bandwidths" not in train:
        return GmmdConfig(**train)
    kernel = KernelConfig(tuple(train["bandwidths"]))
    return TrainConfig(**{k: v for k, v in train.items() if k != "bandwidths"}, kernel=kernel)


# Every config field: its dotted path, its check (None where its section's
# check covers it) and its default in each experiment that reads it. A check
# raises a ConfigError that says what the value must be, or builds what reads
# the value and lets that raise a TypeError or ValueError.
_FIELDS = (
    ("seed", _count(0), dict.fromkeys(EXPERIMENTS, _REQUIRED)),
    ("output_dir", _must(lambda v: v is None or isinstance(v, str) and v,
                         "null or a non-empty string"),
     dict.fromkeys(EXPERIMENTS)),
    ("data.source", _must(lambda v: v in ("synthetic", "csv"), "'synthetic' or 'csv'"),
     dict.fromkeys(EXPERIMENTS, "synthetic")),
    ("data.n_events", _count(1), dict.fromkeys(EXPERIMENTS, 10240)),
    ("data.path", _must(lambda v: isinstance(v, str) and Path(v).is_file(), "an existing file"),
     dict.fromkeys(EXPERIMENTS, _REQUIRED)),
    ("data.condition", _must(_is_positive_real, "a finite number > 0"),
     {**dict.fromkeys(("exp-1d", "exp-noise", "exp-gmmd"), 50.0),
      **dict.fromkeys(("exp-multi", "exp-blocks"), 125.0)}),
    ("data.held_out", _must(lambda v: v in CONDITION_VALUES, f"one of {CONDITION_VALUES}"),
     {"exp-cond": 125.0}),
    ("init_scheme", lambda scheme: init_parameters(0, scheme),
     dict.fromkeys(_BORN_EXPERIMENTS, "small_normal")),
    ("train.optimizer", None, dict.fromkeys(_BORN_EXPERIMENTS, "adam")),
    ("train.initial_lr", None, dict.fromkeys(_BORN_EXPERIMENTS, 0.01)),
    ("train.lr_halving_period", None, dict.fromkeys(_BORN_EXPERIMENTS, 20)),
    ("train.batches_per_epoch", None, dict.fromkeys(_BORN_EXPERIMENTS, 10)),
    ("train.batch_size", None, dict.fromkeys(_BORN_EXPERIMENTS)),
    ("train.max_epochs", None,
     {**dict.fromkeys(("exp-1d", "exp-noise"), 70), "exp-cond": 30,
      **dict.fromkeys(("exp-multi", "exp-blocks", "exp-gmmd"), 100)}),
    ("train.spsa_epochs", None, dict.fromkeys(_BORN_EXPERIMENTS, 0)),
    ("train.bandwidths", _must(lambda v: isinstance(v, list), "a list"),
     dict.fromkeys(_BORN_EXPERIMENTS, list(PAPER_BANDWIDTHS))),
    ("circuit.n_repetitions", _count(0), dict.fromkeys(("exp-multi", "exp-blocks"), 4)),
    ("circuit.block.connectivity", None, {"exp-multi": "linear"}),
    ("circuit.block.depth_pairs", None, {"exp-multi": "first_only"}),
    ("circuit.block.style", None, {"exp-multi": "hh_cx"}),
    ("circuit.n_layers", _count(0), {"exp-cond": 4}),
    ("sampling.n_shots", _count(1), dict.fromkeys(_SAMPLED, 5120)),
    ("sampling.repetitions", _count(1), dict.fromkeys(_SAMPLED, 10)),
    ("noise.readout_flip_prob",  # one probability, or one per qubit of the 1D target
     lambda p: NoiseConfig(readout_flip_prob=p).flip_probs(int(math.log2(_BINS_1D))),
     {"exp-noise": 0.029}),
    ("noise.calibration_shots", _count(1), {"exp-noise": 100000}),
    ("model.latent_dim", _count(1), {"exp-gmmd": 15}),
    ("model.hidden", _widths, {"exp-gmmd": [64, 128, 64, 16]}),
)
# Sections checked as a whole, by building what reads them
_SECTIONS = (
    ("train.", _schedule),
    ("circuit.block.", lambda block: CorrelationBlockChoice(**block)),
)
# Each data source reads only its own field.
_SOURCE_FIELDS = {"synthetic": "data.n_events", "csv": "data.path"}


def _check(check, path: str, value) -> None:
    try:
        check(value)
    except ConfigError as exc:
        raise ConfigError(f"{path} {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _given(body, fields: set, path: str = "") -> dict:
    """The values that body sets, by dotted path; a key that is no field or
    section of fields, or a section that is not an object, is an error."""
    if not isinstance(body, dict):
        raise ConfigError(f"{path or 'the config'} must be an object")
    given = {}
    for key, value in body.items():
        where = f"{path}.{key}" if path else key
        if where in fields:
            given[where] = value
        elif any(field.startswith(where + ".") for field in fields):
            given.update(_given(value, fields, where))
        else:
            raise ConfigError(f"unknown config field {where!r}")
    return given


def _resolve(raw, rows) -> dict:
    """The value of each (path, check, default) row by its path: the value
    that raw sets, checked, or else the default."""
    given = _given(raw, {path for path, _, _ in rows})
    values = {}
    for path, check, default in rows:
        if path in given:
            values[path] = copy.deepcopy(given[path])
            if check:
                _check(check, path, values[path])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field {path!r}")
        else:
            values[path] = copy.deepcopy(default)
    return values


class ExperimentConfig:
    """Validated experiment configuration with defaults filled in."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("the config must be an object")
        if "experiment" not in raw:
            raise ConfigError("missing required field 'experiment'")
        if raw["experiment"] not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {raw['experiment']!r}")
        self.experiment = raw["experiment"]
        data = raw.get("data")
        source = data.get("source", "synthetic") if isinstance(data, dict) else "synthetic"
        unread = {field for s, field in _SOURCE_FIELDS.items() if s != source}
        rows = [
            (path, check, defaults[self.experiment])
            for path, check, defaults in _FIELDS
            if self.experiment in defaults and path not in unread
        ]
        values = _resolve({k: v for k, v in raw.items() if k != "experiment"}, rows)
        for prefix, make in _SECTIONS:
            fields = {p[len(prefix):]: v for p, v in values.items() if p.startswith(prefix)}
            if fields:
                _check(make, prefix[:-1], fields)
        self.seed = values.pop("seed")
        self.output_dir = values.pop("output_dir")
        self.settings = {}
        for path, value in values.items():
            *sections, leaf = path.split(".")
            node = self.settings
            for name in sections:
                node = node.setdefault(name, {})
            node[leaf] = value

    def resolved(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            **copy.deepcopy(self.settings),
        }

    def train_config(self, **overrides) -> TrainConfig | GmmdConfig:
        """The train section's settings object, as `_schedule` builds it."""
        return _schedule({**self.settings["train"], "seed": self.seed, **overrides})


def _near(e_in: np.ndarray, condition: float) -> np.ndarray:
    """math.isclose(e, condition, rel_tol=1e-9, abs_tol=1e-9) for each e in
    e_in: |e - condition| <= max(1e-9 * max(|e|, |condition|), 1e-9). As in
    math.isclose, an infinity matches only itself and NaN matches nothing."""
    tol = np.maximum(1e-9 * np.maximum(np.abs(e_in), abs(condition)), 1e-9)
    return (e_in == condition) | ((np.abs(e_in - condition) <= tol) & np.isfinite(tol))


def _events(config: ExperimentConfig, seed_offsets: dict) -> dict:
    """(n, 4) events for each condition in seed_offsets, which maps a
    condition to the seed offset of its synthetic events. A CSV source is
    read once and split on e_in; a malformed row, or a condition with
    fewer than 2 events, is a config error."""
    d = config.settings["data"]
    if d["source"] != "csv":
        return {
            cond: synthesize_mfc(d["n_events"], cond, DEFAULT_CORRELATION, config.seed + offset)
            for cond, offset in seed_offsets.items()
        }
    try:
        events = load_csv(d["path"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    selected = {cond: events[_near(events[:, 3], cond)] for cond in seed_offsets}
    for cond, picked in selected.items():
        if not len(picked):
            raise ConfigError(f"no events with e_in == {cond} (to 1e-9) in {d['path']}")
        if len(picked) == 1:
            raise ConfigError(f"1 event with e_in == {cond} (to 1e-9) in {d['path']}: a condition "
                              "needs at least 2, to split into training and validation halves")
    return selected


def _preprocess(config: ExperimentConfig, events: np.ndarray):
    """preprocess(events); events that it cannot standardize (none, or a
    constant feature) are a config error that names their source."""
    try:
        return preprocess(events)
    except ValueError as exc:
        source = config.settings["data"].get("path", "data.n_events")
        raise ConfigError(f"{source}: {exc}") from exc


@functools.cache
def _version_string() -> str:
    """The package version with `git describe` of its source tree, read
    once per process: the code that runs is the code that was imported."""
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


def _prepare(config: ExperimentConfig, events: dict, train_conditions, n_bins_per_feature, features):
    """Each condition's events split, preprocessed and binned.

    Each condition's events split as train_test_split splits them, with one
    row order drawn per distinct row count. The training halves of
    train_conditions are pooled and preprocessed, and their requested
    features fix the binning; every validation half gets the requested
    features alone. Returns the binning, the preprocessing parameters, and
    the features of each training and each validation half, by condition."""
    orders = {n: _split_order(n, config.seed) for n in {len(evs) for evs in events.values()}}
    ends = np.cumsum([len(events[cond]) // 2 for cond in train_conditions])
    pool = np.empty((ends[-1], 4))  # the pooled training halves, each split straight into its rows
    rows = dict(zip(train_conditions, np.split(pool, ends[:-1])))
    splits = {cond: _split_by(evs, orders[len(evs)], rows.get(cond)) for cond, evs in events.items()}
    pooled, params = _preprocess(config, pool)
    pooled = pooled[:, features]
    binning = BinningSpec.from_training_data(pooled, n_bins_per_feature)
    train_f = dict(zip(train_conditions, np.split(pooled, ends[:-1])))
    val_f = {cond: _preprocessed_columns(val, params, features) for cond, (_, val) in splits.items()}
    return binning, params, train_f, val_f


def _single_condition(config: ExperimentConfig, n_bins_per_feature, features):
    """One condition's events, split, preprocessed and binned: the train and
    validation distributions, the binning, the preprocessing parameters and
    the train and validation features."""
    condition = config.settings["data"]["condition"]
    events = _events(config, {condition: 0})
    binning, params, train_f, val_f = _prepare(config, events, [condition], n_bins_per_feature, features)
    train_f, val_f = train_f[condition], val_f[condition]
    return discretize(train_f, binning), discretize(val_f, binning), binning, params, train_f, val_f


def _fit(config, circuit, target, val_target, seed_offset=0, condition_range=None):
    """Initialise a Born model on circuit and train it on target."""
    theta = init_parameters(circuit.n_parameters, config.settings["init_scheme"], config.seed)
    model = BornModel(circuit, theta, condition_range=condition_range)
    return train(model, target, config.train_config(seed=config.seed + seed_offset), val_target)


def _checkpoint(config: ExperimentConfig, trained: BornModel):
    """Writer of a trained Born model's checkpoint into a bundle directory."""
    return lambda out: save_checkpoint(
        trained, out / "checkpoint.json", {"experiment": config.experiment}
    )


def _val_mmd(trace) -> dict:
    return {
        "final_val_mmd": trace[-1].val_loss,
        "best_val_mmd": min(r.val_loss for r in trace),
    }


# Each hook returns (save_model, trace, metrics, histograms). save_model
# writes the model file into the bundle directory, and is None when there is
# no single trained model. A histogram is (name, binning, feature, target,
# model distribution, sampling seed). Each circuit's size follows from its
# binning: a register of n qubits holds 2**n bins.


def _exp_1d(config: ExperimentConfig):
    train_dist, val_dist, binning, *_ = _single_condition(config, [_BINS_1D], [0])
    circuit = build_1d_rzz_ansatz(*binning.register_bits)
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    dist = model_distribution(trained)
    metrics = {"tv": total_variance(dist, val_dist), **_val_mmd(trace)}
    histograms = [("e_out", binning, 0, val_dist, dist, config.seed)]
    return _checkpoint(config, trained), trace, metrics, histograms


def _exp_multi(config: ExperimentConfig):
    train_dist, val_dist, binning, params, *_ = _single_condition(config, [8, 8, 8], [0, 1, 2])
    bits, c = binning.register_bits, config.settings["circuit"]
    circuit = build_multivariate(
        len(bits), bits[0], c["n_repetitions"], CorrelationBlockChoice(**c["block"])
    )
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    dist = model_distribution(trained)
    # Each bin's centre in physical units: the Pearson matrices weight these
    # rows by the bin counts of the binned events.
    coords = dist.bin_coordinates()
    centers = np.column_stack([binning.bin_centers(j)[col] for j, col in enumerate(coords.T)])
    physical = inverse_preprocess(centers, params)
    generated = np.bincount(sample(dist, 100000, config.seed), minlength=len(dist.probs))
    metrics = {
        "tv_per_feature": {
            name: total_variance(marginal(dist, j), marginal(val_dist, j))
            for j, name in enumerate(FEATURE_NAMES)
        },
        "pearson_generated": pearson_correlation(physical, generated).tolist(),
        "pearson_data": pearson_correlation(physical, val_dist.probs).tolist(),
        "pearson_target": DEFAULT_CORRELATION.tolist(),
        **_val_mmd(trace),
    }
    histograms = [
        (name, binning, j, marginal(val_dist, j), marginal(dist, j), config.seed + j)
        for j, name in enumerate(FEATURE_NAMES)
    ]
    return _checkpoint(config, trained), trace, metrics, histograms


def _exp_blocks(config: ExperimentConfig):
    """Every correlation-block variant, ranked by best validation MMD. The
    trace is one per variant, and there is no single trained model."""
    train_dist, val_dist, binning, *_ = _single_condition(config, [8, 8, 8], [0, 1, 2])
    bits, repetitions = binning.register_bits, config.settings["circuit"]["n_repetitions"]
    results, traces = {}, []
    for i, choice in enumerate(all_block_choices()):
        circuit = build_multivariate(len(bits), bits[0], repetitions, choice)
        trained, trace = _fit(config, circuit, train_dist, val_dist, seed_offset=i)
        traces.append(trace)
        results[choice.label] = {
            **_val_mmd(trace),
            "tv": total_variance(model_distribution(trained), val_dist),
        }
    ranked = sorted(results, key=lambda k: results[k]["best_val_mmd"])
    return None, traces, {"blocks": results, "ranking": ranked}, []


def _exp_cond(config: ExperimentConfig):
    """One conditional model over the seven conditions but the held-out one,
    its data prepared by _prepare: the held-out condition's training half
    is not used."""
    held_out = config.settings["data"]["held_out"]
    train_conditions = [cond for cond in CONDITION_VALUES if cond != held_out]
    events = _events(config, {cond: int(cond) for cond in CONDITION_VALUES})
    binning, _, train_energy, val_energy = _prepare(config, events, train_conditions, [8], [0])
    circuit = build_conditional(*binning.register_bits, config.settings["circuit"]["n_layers"])
    train_dists = {cond: discretize(train_energy[cond], binning) for cond in train_conditions}
    val_dists = {cond: discretize(val_energy[cond], binning) for cond in train_conditions}
    held_out_dist = discretize(val_energy[held_out], binning)
    trained, trace = _fit(
        config,
        circuit,
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
    return _checkpoint(config, trained), trace, metrics, histograms


def _exp_noise(config: ExperimentConfig):
    train_dist, val_dist, binning, *_ = _single_condition(config, [_BINS_1D], [0])
    circuit = build_1d_rzz_ansatz(*binning.register_bits)
    trained, trace = _fit(config, circuit, train_dist, val_dist)
    n = config.settings["noise"]
    noise = NoiseConfig(readout_flip_prob=n["readout_flip_prob"], seed=config.seed)
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
    return _checkpoint(config, trained), trace, metrics, []


def _exp_gmmd(config: ExperimentConfig):
    """The classical baseline: an MLP generator trained on the sample MMD of
    the 1D target, its TV taken over 100 000 generated events."""
    m = config.settings["model"]
    spec = MlpSpec(m["latent_dim"], tuple(m["hidden"]), 1)
    _, val_dist, binning, _, train_f, test_f = _single_condition(config, [_BINS_1D], [0])
    weights, trace = train_gmmd(
        spec, train_f, config.train_config(), binning=binning, val_dataset=test_f
    )
    latent = np.random.default_rng(config.seed + 1).standard_normal((100_000, spec.latent_dim))
    generated = forward(weights, latent)
    metrics = {"tv": total_variance(discretize(generated, binning), val_dist), **_val_mmd(trace)}
    return lambda out: save_weights(weights, spec, out / "weights.json"), trace, metrics, []


_HOOKS = {
    "exp-1d": _exp_1d,
    "exp-multi": _exp_multi,
    "exp-cond": _exp_cond,
    "exp-blocks": _exp_blocks,
    "exp-noise": _exp_noise,
    "exp-gmmd": _exp_gmmd,
}


def run_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Run one experiment, writing the full report bundle to output_dir."""
    save_model, trace, metrics, histograms = _HOOKS[config.experiment](config)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = config.resolved()
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    if save_model is None:  # exp-blocks: one trace per variant, no single model
        for i, variant_trace in enumerate(trace):
            trace_to_csv(variant_trace, out / f"trace_{i}.csv")
    else:
        trace_to_csv(trace, out / "trace.csv")
        save_model(out)
        metrics["trace"] = trace_to_json(trace)
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
    """Every numeric leaf by its dotted path; a list's entries are keyed by
    index (pearson_generated.0.1). The trace and non-numeric leaves are
    skipped."""
    flat = {}
    for key, value in metrics.items():
        if key == "trace":
            continue
        name = f"{prefix}{key}"
        if isinstance(value, list):
            value = dict(enumerate(value))
        if isinstance(value, dict):
            flat.update(_flatten_metrics(value, name + "."))
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def compare_report(report_a: dict, report_b: dict, tolerance: float = 0.05):
    """Per-metric deltas between two reports of the same experiment type.

    Returns (diff, regression) where regression flags any scalar metric
    whose absolute delta exceeds the tolerance or is not finite (a metric
    that turns NaN or infinite). The tolerance must be a finite number >= 0,
    and each report an object whose metrics is an object, else ValueError.
    """
    number = isinstance(tolerance, (int, float)) and not isinstance(tolerance, bool)
    if not (number and 0 <= tolerance < math.inf):  # NaN too
        raise ValueError(f"tolerance must be a finite number >= 0, not {tolerance!r}")
    for name, report in (("first", report_a), ("second", report_b)):
        if not isinstance(report, dict) or not isinstance(report.get("metrics"), dict):
            raise ValueError(f"the {name} report is not a JSON object with a metrics object")
    if report_a.get("experiment") != report_b.get("experiment"):
        raise ValueError("reports come from different experiment types")
    a = _flatten_metrics(report_a["metrics"])
    b = _flatten_metrics(report_b["metrics"])
    if set(a) != set(b):
        missing = sorted(set(a) ^ set(b))
        raise ValueError(f"structural mismatch between reports: {missing}")
    diff = {k: b[k] - a[k] for k in sorted(a) if b[k] != a[k]}
    regression = any(not abs(v) <= tolerance for v in diff.values())  # NaN too
    return diff, regression
