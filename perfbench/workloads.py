"""The benchmark's workloads: timed passes through borngen's public entry
points, the correctness checks run on each pass, and the metrics.

A workload is a list of entries run in sequence. An `exp-*` entry is one
`experiments.run_experiment` call on a config dict; the `gmmd` entry is the
classical baseline as `scripts/run_gmmd_baseline.py` runs it. Why each
workload exists, and which layer metric should move which end-to-end
metric on it, is written down in LAYERS.md beside this file.

Import this module only after `env.pin_blas_threads()`.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from borngen import baseline, data, experiments, metrics
from borngen.born import model_distribution
from borngen.distributions import DiscreteDistribution

# Epochs per entry, cut from the acceptance lengths so that a run holds
# several passes (a full `multi` pass takes about 55 s, a full `gmmd` pass
# 200 s). `small` keeps the acceptance ratio of 1D to conditional epochs.
WORKLOADS = {
    "multi": {"exp-multi": 10},
    "small": {"exp-1d": 35, "exp-noise": 35, "exp-cond": 15},
    "gmmd": {"gmmd": 3},
}
ACCEPTANCE_EPOCHS = {"exp-1d": 70, "exp-noise": 70, "exp-cond": 30, "exp-multi": 100, "gmmd": 100}
# The seeds of configs/exp_*.json and of the GMMD script, which the
# acceptance tests pin. Each run makes one pass at these seeds: its TVs do
# not vary with --seed, so `tv_max` can carry a bound (across seeds the
# worst TV varies by 35-50 % of its median, more than any bound allows).
REFERENCE_SEEDS = {"exp-1d": 1, "exp-noise": 0, "exp-cond": 2, "exp-multi": 1, "gmmd": 0}

GMMD_HIDDEN = (64, 128, 64, 16)
GMMD_LATENT = 15
EVAL_SAMPLES = 100_000

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("run_s", "s"),
    ("epoch_p50_s", "s"),
    ("epoch_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tv_max", "fraction"),
)

# (metric, unit, source): "self" and "calls" read the span named by the
# metric's prefix, "count" a work count; run.py computes "ratio" and "pass".
PER_LAYER = (
    ("sim.run_circuit_batch.calls", "count", "calls"),
    ("sim.run_circuit_batch.self_s", "s", "self"),
    ("sim.run_circuit_batch.rows", "count", "count"),
    ("sim.run_circuit.calls", "count", "calls"),
    ("sim.run_circuit.self_s", "s", "self"),
    ("sim.gate_applications", "count", "count"),
    ("sim.bytes_computed", "B", "count"),
    ("born.model_distribution.calls", "count", "calls"),
    ("born.model_distribution.self_s", "s", "self"),
    ("born.model_probs_batch.self_s", "s", "self"),
    ("metrics.mmd_gradient.calls", "count", "calls"),
    ("metrics.mmd_gradient.self_s", "s", "self"),
    ("metrics.states_per_gradient", "states/call", "ratio"),
    ("metrics.mmd_loss.calls", "count", "calls"),
    ("metrics.mmd_loss.self_s", "s", "self"),
    ("metrics.gram.self_s", "s", "self"),
    ("optimize.train.self_s", "s", "self"),
    ("optimize.epochs", "count", "count"),
    ("optimize.adam_step.calls", "count", "calls"),
    ("optimize.adam_step.self_s", "s", "self"),
    ("data.synthesize_mfc.self_s", "s", "self"),
    ("data.events", "count", "count"),
    ("data.preprocess.self_s", "s", "self"),
    ("data.discretize.self_s", "s", "self"),
    ("distributions.sample.calls", "count", "calls"),
    ("distributions.sample.shots", "count", "count"),
    ("distributions.sample.self_s", "s", "self"),
    ("noise.calls", "count", "calls"),
    ("noise.self_s", "s", "self"),
    ("experiments.run_experiment.self_s", "s", "self"),
    ("baseline.train_gmmd.self_s", "s", "self"),
    ("baseline.gmmd_loss_and_grad.calls", "count", "calls"),
    ("baseline.gmmd_loss_and_grad.self_s", "s", "self"),
    ("baseline.gmmd_batch_loss.calls", "count", "calls"),
    ("baseline.gmmd_batch_loss.self_s", "s", "self"),
    ("baseline.forward.self_s", "s", "self"),
    ("baseline.kernel_entries", "count", "count"),
    ("trace.train_s", "s", "pass"),
    ("trace.run_s", "s", "pass"),
    ("trace.overhead_s", "s", "pass"),
)


@dataclass
class TrainCall:
    start: float
    end: float
    args: tuple
    result: object


class TrainTap:
    """Times each call into a training entry point and keeps its arguments
    and result for the checks."""

    def __init__(self):
        self.calls: list[TrainCall] = []

    def wrap(self, fn):
        def tapped(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append(TrainCall(start, time.perf_counter(), args, result))
            return result

        return tapped


@dataclass
class Pass:
    entries: tuple
    setup_s: float = 0.0
    train_s: float = 0.0
    run_s: float = 0.0
    epoch_seconds: list = field(default_factory=list)
    tvs: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    train_calls: list = field(default_factory=list)
    tracer: tracer.Tracer | None = None


def _run_entry(name, epochs, seed, out: Path):
    """One entry through the public entry points; returns its metrics."""
    if name != "gmmd":
        config = experiments.ExperimentConfig(
            {"experiment": name, "seed": seed, "train": {"max_epochs": epochs}}
        )
        return experiments.run_experiment(config, out / name)["metrics"]
    events = data.synthesize_mfc(10240, 50.0, seed=seed)
    train_events, test_events = data.train_test_split(events, seed)
    train_feats, params = data.preprocess(train_events)
    test_feats = data.apply_preprocess(test_events, params)
    x_train, x_test = train_feats[:, :1], test_feats[:, :1]
    binning = data.BinningSpec.from_training_data(x_train, [16])
    spec = baseline.MlpSpec(GMMD_LATENT, GMMD_HIDDEN, 1)
    weights, _ = baseline.train_gmmd(
        spec,
        x_train,
        baseline.GmmdConfig(max_epochs=epochs, seed=seed),
        binning=binning,
        val_dataset=x_test,
    )
    latent = np.random.default_rng(seed + 1).standard_normal((EVAL_SAMPLES, GMMD_LATENT))
    generated = baseline.forward(weights, latent)
    tv = metrics.total_variance(data.discretize(generated, binning), data.discretize(x_test, binning))
    return {"tv": tv, "generated_finite": bool(np.isfinite(generated).all())}


def _held_out_tvs(name, m) -> dict:
    """TVs of the entry's trained models against held-out data."""
    if name == "exp-noise":
        return {"tv_exact": m["tv_exact"], "tv_mitigated": m["tv_mitigated"]}
    if name == "exp-cond":
        return {**{f"tv_{c}": v for c, v in m["tv_per_condition"].items()}, "tv_held_out": m["tv_held_out"]}
    if name == "exp-multi":
        return {f"tv_{k}": v for k, v in m["tv_per_feature"].items()}
    return {"tv": m["tv"]}


def run_pass(entries, out: Path, traced=False) -> Pass:
    """Run (name, epochs, seed) entries once; time set-up, training and all.

    Set-up is the wall time from an entry's start to its first training
    call.
    """
    gc.collect()  # start every pass from the same heap, outside its timing
    tap = TrainTap()
    result = Pass(tuple(entries), tracer=tracer.Tracer() if traced else None)
    wrappers = tracer.trace_wrappers(result.tracer) if traced else {}
    for module, attr, name, counter in tracer.TRAIN_BINDINGS:
        inner = wrappers.get((module, attr), lambda fn: fn)
        wrappers[(module, attr)] = lambda fn, inner=inner: tap.wrap(inner(fn))

    with tracer.patched(wrappers):
        pass_start = time.perf_counter()
        for name, epochs, seed in entries:
            first_call = len(tap.calls)
            entry_start = time.perf_counter()
            m = _run_entry(name, epochs, seed, out)
            calls = tap.calls[first_call:]
            result.setup_s += calls[0].start - entry_start
            result.train_s += sum(c.end - c.start for c in calls)
            for c in calls:
                result.epoch_seconds += [r.seconds for r in c.result[1]]
            result.reports[name] = m
            result.tvs.update({f"{name}.{k}": v for k, v in _held_out_tvs(name, m).items()})
            result.train_calls += [(name, c) for c in calls]
        result.run_s = time.perf_counter() - pass_start
    return result


# ---------------------------------------------------------------- checks

def _gradient_oracle(model, target, condition):
    """Parameter-shift gradient against central differences (acceptance 1)."""
    config = metrics.KernelConfig()
    analytic = metrics.mmd_gradient(model, target, config, condition)
    h = 1e-5
    worst = -np.inf
    for i in range(model.circuit.n_parameters):
        plus, minus = model.theta.copy(), model.theta.copy()
        plus[i] += h
        minus[i] -= h
        lp = metrics.mmd_loss(model_distribution(model.with_theta(plus), condition), target, config)
        lm = metrics.mmd_loss(model_distribution(model.with_theta(minus), condition), target, config)
        numeric = (lp - lm) / (2 * h)
        worst = max(worst, abs(analytic[i] - numeric) - (1e-5 * abs(numeric) + 1e-9))
    return worst <= 0, f"worst margin {worst:.1e} (rtol 1e-5, atol 1e-9)"


def _backprop_oracle(seed):
    """GMMD backprop against finite differences at 1e-4 relative, on the
    small network acceptance 9 uses."""
    rng = np.random.default_rng(seed)
    spec = baseline.MlpSpec(3, (5, 4), 1)
    weights = baseline.init_weights(spec, seed)
    z = rng.standard_normal((16, 3))
    batch = rng.standard_normal((20, 1))
    kernel = metrics.KernelConfig()
    _, grads = baseline.gmmd_loss_and_grad(weights, z, batch, kernel)
    flat, flat_grad = baseline.flatten_weights(weights), baseline.flatten_weights(grads)
    worst = 0.0
    for i in rng.choice(len(flat), size=20, replace=False):
        plus, minus = flat.copy(), flat.copy()
        plus[i] += 1e-6
        minus[i] -= 1e-6
        lp, _ = baseline.gmmd_loss_and_grad(baseline.unflatten_weights(plus, spec), z, batch, kernel)
        lm, _ = baseline.gmmd_loss_and_grad(baseline.unflatten_weights(minus, spec), z, batch, kernel)
        numeric = (lp - lm) / 2e-6
        worst = max(worst, abs(flat_grad[i] - numeric) / max(abs(numeric), 1e-8))
    return worst <= 1e-4, f"worst relative error {worst:.1e}"


def check_pass(p: Pass, oracles: bool) -> list[str]:
    """Correctness failures of one pass; an empty list means it passed.

    The gradient oracles take seconds on `multi`, so a run applies them to
    one pass: one parameter vector, the trained one, per model.
    """
    failures = []
    seeds = {name: seed for name, _, seed in p.entries}
    for name, call in p.train_calls:
        trained, trace = call.result
        losses = [v for r in trace for v in (r.train_loss, r.val_loss)]
        if not np.isfinite(losses).all():
            failures.append(f"{name}: non-finite loss in the trace")
        if name == "gmmd":
            if not p.reports[name]["generated_finite"]:
                failures.append("gmmd: non-finite generated sample")
            if oracles:
                ok, detail = _backprop_oracle(seeds[name])
                if not ok:
                    failures.append(f"gmmd: backprop oracle failed, {detail}")
            continue
        conditions = data.CONDITION_VALUES if trained.condition_range else [None]
        for c in conditions:
            total = model_distribution(trained, c).probs.sum()
            if abs(total - 1.0) > 1e-9:
                failures.append(f"{name}: distribution at {c} sums to {total!r}")
        if oracles:
            target = call.args[1]
            if isinstance(target, DiscreteDistribution):
                condition = None
            else:
                condition = min(target)
                target = target[condition]
            ok, detail = _gradient_oracle(trained, target, condition)
            if not ok:
                failures.append(f"{name}: gradient oracle failed, {detail}")
    return failures


def acceptance_failures(p: Pass) -> list[str]:
    """The acceptance tolerances, for entries run at their acceptance
    lengths and seeds."""
    failures = []
    for name, epochs, seed in p.entries:
        if (epochs, seed) != (ACCEPTANCE_EPOCHS[name], REFERENCE_SEEDS[name]):
            continue
        m = p.reports[name]
        if name == "exp-1d" and m["tv"] > 0.08:
            failures.append(f"exp-1d: TV {m['tv']:.4f} > 0.08")
        if name == "exp-cond" and m["tv_held_out"] > 0.08:
            failures.append(f"exp-cond: held-out TV {m['tv_held_out']:.4f} > 0.08")
        if name == "gmmd" and m["tv"] > 0.06:
            failures.append(f"gmmd: TV {m['tv']:.4f} > 0.06")
        if name == "exp-multi":
            worst = max(m["tv_per_feature"].values())
            r = np.asarray(m["pearson_generated"])
            pearson = (r[0, 1], r[0, 2], r[1, 2])
            if worst > 0.10:
                failures.append(f"exp-multi: marginal TV {worst:.4f} > 0.10")
            if any(abs(g - t) > 0.20 for g, t in zip(pearson, (0.43, 0.89, 0.61))):
                failures.append(f"exp-multi: Pearson {np.round(pearson, 3)} not within 0.20")
    return failures
