"""ADAM and SPSA optimizers, the learning-rate schedule and the train loop."""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .born import BornModel, model_distribution
from .distributions import DiscreteDistribution
from .metrics import KernelConfig, _is_positive_real, mmd_gradient, mmd_loss, total_variance
# perfbench/tracer.py binds its metrics.gram span to this name as well as
# to metrics._gram, which builds the shared Gram factors
from .metrics import GramCache  # noqa: F401
# perfbench/tracer.py binds its noise span to this name
from .noise import readout_matrix  # noqa: F401
from .sim import _is_count

__all__ = [
    "Schedule",
    "TrainConfig",
    "EpochRecord",
    "TrainingDivergedError",
    "AdamState",
    "adam_step",
    "spsa_step",
    "init_parameters",
    "learning_rate",
    "train",
    "trace_to_csv",
    "trace_to_json",
]


class TrainingDivergedError(RuntimeError):
    """Raised when a gradient, the parameters or a loss turn non-finite
    during training."""


def _check_finite(values: np.ndarray, name: str, epoch: int, step: int) -> None:
    if not np.isfinite(values).all():
        raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}, step {step}")


# SPSA's step a / k**alpha and perturbation c / k**gamma at iteration k:
# standard Spall decay constants; the source material gives none.
_SPSA_A, _SPSA_C, _SPSA_ALPHA, _SPSA_GAMMA = 0.2, 0.1, 0.602, 0.101
# ADAM's moment decay rates and the offset of its denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Schedule:
    """The training schedule the Born machine and the GMMD baseline share."""

    initial_lr: float = 0.01
    lr_halving_period: int = 20
    batches_per_epoch: int = 10
    batch_size: int = 512
    max_epochs: int = 70
    seed: int = 0
    kernel: KernelConfig = field(default_factory=KernelConfig)
    _NULLABLE = ()  # the counts that may be None

    def __post_init__(self):
        if not _is_positive_real(self.initial_lr):
            raise ValueError(f"initial_lr must be a finite number > 0, not {self.initial_lr!r}")
        if not _is_count(self.lr_halving_period, 1):
            raise ValueError(
                f"lr_halving_period must be an integer >= 1, not {self.lr_halving_period!r}"
            )
        for name in ("batches_per_epoch", "batch_size", "max_epochs"):
            value = getattr(self, name)
            if not (_is_count(value, 1) or value is None and name in self._NULLABLE):
                raise ValueError(f"counts must be >= 1 and integers, not {name}={value!r}")


@dataclass(frozen=True)
class TrainConfig(Schedule):
    optimizer: str = "adam"  # adam | spsa
    batch_size: Optional[int] = None  # None: the exact target; n: a batch of n events
    spsa_epochs: int = 0  # SPSA epochs after max_epochs, from the best parameters
    _NULLABLE = ("batch_size",)

    def __post_init__(self):
        if self.optimizer not in ("adam", "spsa"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}: 'adam' or 'spsa', and "
                             "either one is followed by spsa_epochs of SPSA fine-tuning")
        super().__post_init__()
        if not _is_count(self.spsa_epochs, 0):
            raise ValueError(f"spsa_epochs must be an integer >= 0, not {self.spsa_epochs!r}")


@dataclass(slots=True)  # one per epoch of every run, so kept small
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    tv: float
    lr: float
    seconds: float
    grad_norm: float
    phase: str


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    theta: np.ndarray,
    gradient: np.ndarray,
    state: AdamState,
    lr: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected ADAM update. It updates state in place (its
    moments m and v and its step count t) and returns the new theta and
    state itself."""
    theta = np.asarray(theta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if theta.shape != gradient.shape:
        raise ValueError("theta and gradient lengths differ")
    state.t += 1
    m, v = state.m, state.v
    m *= _BETA1  # m = beta1 m + (1 - beta1) g
    m += (1 - _BETA1) * gradient
    v *= _BETA2  # v = beta2 v + (1 - beta2) g**2
    v += (1 - _BETA2) * gradient**2
    step = m / (1 - _BETA1**state.t)  # m_hat
    step *= lr
    step /= np.sqrt(v / (1 - _BETA2**state.t)) + _EPS  # over sqrt(v_hat) + eps
    return theta - step, state


def spsa_step(
    theta: np.ndarray,
    loss_fn: Callable[[np.ndarray], float],
    iteration: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One SPSA update from exactly two loss evaluations."""
    theta = np.asarray(theta, dtype=float)
    k = iteration + 1
    a_k = _SPSA_A / k**_SPSA_ALPHA
    c_k = _SPSA_C / k**_SPSA_GAMMA
    delta = rng.integers(0, 2, size=len(theta)) * 2.0 - 1.0
    diff = loss_fn(theta + c_k * delta) - loss_fn(theta - c_k * delta)
    return theta - a_k * diff / (2.0 * c_k) * delta


def init_parameters(n: int, scheme: str = "small_normal", seed: int = 0) -> np.ndarray:
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    if scheme == "zeros":
        return np.zeros(n)
    if scheme == "uniform_0_2pi":
        return rng.uniform(0.0, 2.0 * np.pi, size=n)
    if scheme == "small_normal":
        return 0.1 * rng.standard_normal(n)
    raise ValueError(f"unknown init scheme {scheme!r}")


def learning_rate(config: Schedule, epoch: int) -> float:
    """initial_lr halved every lr_halving_period epochs."""
    return config.initial_lr * 2.0 ** (-(epoch // config.lr_halving_period))


TargetLike = Union[DiscreteDistribution, Mapping[float, DiscreteDistribution]]


def _as_target_map(target: TargetLike):
    if isinstance(target, DiscreteDistribution):
        return {None: target}
    return dict(target)


def _batch_target(tgt: DiscreteDistribution, n: Optional[int], rng) -> DiscreteDistribution:
    """tgt itself if n is None, else the frequencies of n events drawn from it."""
    if n is None:
        return tgt
    counts = rng.multinomial(n, tgt.probs / tgt.probs.sum())
    return DiscreteDistribution(counts / n, tgt.register_bits)


def _run_epochs(config: Schedule, params: np.ndarray, n_epochs: int, run_epoch, evaluate):
    """The epoch loop both generators share. run_epoch(epoch, lr, params,
    best_params) takes one epoch's steps and returns the new parameters and
    the EpochRecord fields it measured; evaluate(params) returns the rest,
    train_loss and val_loss among them. Returns the parameters with the best
    validation loss and the per-epoch trace."""
    best_val = np.inf
    best = params.copy()
    trace: list[EpochRecord] = []
    for epoch in range(n_epochs):
        start = time.perf_counter()
        lr = learning_rate(config, epoch)
        params, measured = run_epoch(epoch, lr, params, best)
        measured.update(evaluate(params))
        train_loss, val_loss = measured["train_loss"], measured["val_loss"]
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}: train={train_loss}, val={val_loss}"
            )
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
        trace.append(
            EpochRecord(epoch=epoch, lr=lr, seconds=time.perf_counter() - start, **measured)
        )
    return best, trace


def train(
    model: BornModel,
    target: TargetLike,
    config: TrainConfig,
    val_target: Optional[TargetLike] = None,
) -> tuple[BornModel, list[EpochRecord]]:
    """Train the model against one target (or one per condition value).

    Returns the parameters with the best validation loss and the full
    per-epoch trace. Conditions are visited in ascending order.
    """
    targets = _as_target_map(target)
    if not targets:
        raise ValueError("train needs at least one target")
    val_targets = _as_target_map(val_target) if val_target is not None else targets
    conditions = sorted(targets, key=lambda c: (c is not None, c))
    if set(val_targets) != set(targets):
        raise ValueError("validation targets must cover the same conditions")

    for tgt in [*targets.values(), *val_targets.values()]:
        if tgt.register_bits != model.circuit.register_bits:
            raise ValueError("target bin layout does not match the model")

    def eval_dist(theta, cond):
        return model_distribution(model.with_theta(theta), cond)

    def mean_loss(dists, target_map):
        return float(np.mean([mmd_loss(dists[c], target_map[c], config.kernel) for c in conditions]))

    rng = np.random.default_rng(config.seed)
    adam_state = AdamState.init(len(model.theta))
    spsa_iteration = 0

    def run_epoch(epoch, lr, theta, best_theta):
        nonlocal adam_state, spsa_iteration
        spsa_phase = config.optimizer == "spsa" or epoch >= config.max_epochs
        if epoch == config.max_epochs:
            theta = best_theta.copy()  # fine-tuning resumes from the best point
        step = 0
        for cond in conditions:
            for _ in range(config.batches_per_epoch):
                batch = _batch_target(targets[cond], config.batch_size, rng)
                if spsa_phase:
                    loss_fn = lambda th: mmd_loss(eval_dist(th, cond), batch, config.kernel)
                    theta = spsa_step(theta, loss_fn, spsa_iteration, rng)
                    spsa_iteration += 1
                else:
                    grad = mmd_gradient(model.with_theta(theta), batch, config.kernel, cond)
                    _check_finite(grad, "gradient", epoch, step)
                    theta, adam_state = adam_step(theta, grad, adam_state, lr)
                _check_finite(theta, "theta", epoch, step)
                step += 1
        # the trace records the norm of the epoch's last gradient
        grad_norm = 0.0 if spsa_phase else float(np.linalg.norm(grad))
        return theta, {"grad_norm": grad_norm, "phase": "spsa" if spsa_phase else "adam"}

    def evaluate(theta):
        dists = {c: eval_dist(theta, c) for c in conditions}  # one per condition
        return {
            "train_loss": mean_loss(dists, targets),
            "val_loss": mean_loss(dists, val_targets),
            "tv": float(np.mean([total_variance(dists[c], val_targets[c]) for c in conditions])),
        }

    n_epochs = config.max_epochs + config.spsa_epochs
    best_theta, trace = _run_epochs(config, model.theta.copy(), n_epochs, run_epoch, evaluate)
    return model.with_theta(best_theta), trace


_TRACE_FIELDS = tuple(f.name for f in fields(EpochRecord))


def trace_to_csv(trace: list[EpochRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_FIELDS)
        for rec in trace:
            writer.writerow([getattr(rec, f) for f in _TRACE_FIELDS])


def trace_to_json(trace: list[EpochRecord]) -> list[dict]:
    """The trace as one dict per epoch, without the wall-clock seconds, so
    that a fixed seed gives the same rows every run."""
    return [{f: getattr(rec, f) for f in _TRACE_FIELDS if f != "seconds"} for rec in trace]
