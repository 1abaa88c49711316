"""ADAM and SPSA optimizers, the learning-rate schedule and the train loop."""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .born import BornModel, model_distribution
from .distributions import DiscreteDistribution
from .metrics import GramCache, KernelConfig, mmd_gradient, mmd_loss, total_variance
from .noise import NoiseConfig, readout_matrix

__all__ = [
    "SpsaSettings",
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
    if not np.all(np.isfinite(values)):
        raise TrainingDivergedError(f"non-finite {name} at epoch {epoch}, step {step}")


@dataclass(frozen=True)
class SpsaSettings:
    """Standard Spall decay constants; the source material gives none."""

    a: float = 0.2
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"  # adam | spsa | mixed
    initial_lr: float = 0.01
    lr_halving_period: int = 20
    batches_per_epoch: int = 10
    batch_size: int = 512
    max_epochs: int = 70
    seed: int = 0
    spsa: SpsaSettings = field(default_factory=SpsaSettings)
    spsa_epochs: int = 10  # fine-tuning epochs in the mixed scheme
    kernel: KernelConfig = field(default_factory=KernelConfig)
    noise: Optional[NoiseConfig] = None
    sample_batches: bool = False  # finite 512-sample target batches

    def __post_init__(self):
        if self.optimizer not in ("adam", "spsa", "mixed"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        _check_schedule(self)
        if not _is_count(self.spsa_epochs, 0):
            raise ValueError(f"spsa_epochs must be an integer >= 0, not {self.spsa_epochs!r}")
        if not isinstance(self.sample_batches, bool):
            raise ValueError(f"sample_batches must be true or false, not {self.sample_batches!r}")


def _is_count(value, minimum: int) -> bool:
    """Whether value is an int (a bool is not one) of at least minimum."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _check_schedule(config) -> None:
    """Reject non-positive learning-rate settings and counts (TrainConfig, GmmdConfig)."""
    if config.initial_lr <= 0 or config.lr_halving_period < 1:
        raise ValueError("learning-rate settings must be positive")
    if min(config.batches_per_epoch, config.batch_size, config.max_epochs) < 1:
        raise ValueError("counts must be >= 1")


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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected ADAM update; returns new theta and state."""
    theta = np.asarray(theta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if theta.shape != gradient.shape:
        raise ValueError("theta and gradient lengths differ")
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * gradient
    v = beta2 * state.v + (1 - beta2) * gradient**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m, v, t)


def spsa_step(
    theta: np.ndarray,
    loss_fn: Callable[[np.ndarray], float],
    iteration: int,
    settings: SpsaSettings,
    rng: np.random.Generator,
) -> np.ndarray:
    """One SPSA update from exactly two loss evaluations."""
    theta = np.asarray(theta, dtype=float)
    k = iteration + 1
    a_k = settings.a / k**settings.alpha
    c_k = settings.c / k**settings.gamma
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


def learning_rate(config, epoch: int) -> float:
    """initial_lr halved every lr_halving_period epochs, read from a
    TrainConfig or a GmmdConfig."""
    return config.initial_lr * 2.0 ** (-(epoch // config.lr_halving_period))


TargetLike = Union[DiscreteDistribution, Mapping[float, DiscreteDistribution]]


def _as_target_map(target: TargetLike):
    if isinstance(target, DiscreteDistribution):
        return {None: target}
    return dict(target)


def _batch_target(
    tgt: DiscreteDistribution, config: TrainConfig, rng: np.random.Generator
) -> DiscreteDistribution:
    if not config.sample_batches:
        return tgt
    counts = rng.multinomial(config.batch_size, tgt.probs / tgt.probs.sum())
    return DiscreteDistribution(counts / config.batch_size, tgt.register_bits, tgt.names)


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
    val_targets = _as_target_map(val_target) if val_target is not None else targets
    conditions = sorted(targets, key=lambda c: (c is not None, c))
    if set(val_targets) != set(targets):
        raise ValueError("validation targets must cover the same conditions")

    bits = model.circuit.register_bits
    for tgt in targets.values():
        if tgt.register_bits != bits:
            raise ValueError("target bin layout does not match the model")

    cache = GramCache(bits, config.kernel)
    transform = None  # the readout matrix the model is trained through
    if config.noise is not None:
        transform = readout_matrix(model.circuit.n_qubits, config.noise).matrix

    def eval_dist(theta, cond):
        dist = model_distribution(model.with_theta(theta), cond)
        if transform is None:
            return dist
        return DiscreteDistribution(transform @ dist.probs, dist.register_bits, dist.names)

    def mean_loss(dists, target_map):
        return float(
            np.mean([mmd_loss(dists[c], target_map[c], config.kernel, cache) for c in conditions])
        )

    rng = np.random.default_rng(config.seed)
    theta = model.theta.copy()
    adam_state = AdamState.init(len(theta))
    spsa_iteration = 0
    best_val = np.inf
    best_theta = theta.copy()
    trace: list[EpochRecord] = []

    mixed = config.optimizer == "mixed"
    total_epochs = config.max_epochs + (config.spsa_epochs if mixed else 0)

    for epoch in range(total_epochs):
        start = time.perf_counter()
        spsa_phase = config.optimizer == "spsa" or (mixed and epoch >= config.max_epochs)
        if mixed and epoch == config.max_epochs:
            theta = best_theta.copy()  # fine-tuning resumes from the best point
        lr = learning_rate(config, epoch)
        grad_norm = 0.0
        step = 0
        for cond in conditions:
            for _ in range(config.batches_per_epoch):
                batch = _batch_target(targets[cond], config, rng)
                if spsa_phase:
                    loss_fn = lambda th: mmd_loss(
                        eval_dist(th, cond), batch, config.kernel, cache
                    )
                    theta = spsa_step(theta, loss_fn, spsa_iteration, config.spsa, rng)
                    spsa_iteration += 1
                else:
                    grad = mmd_gradient(
                        model.with_theta(theta),
                        batch,
                        config.kernel,
                        cond,
                        cache,
                        transform,
                    )
                    _check_finite(grad, "gradient", epoch, step)
                    grad_norm = float(np.linalg.norm(grad))
                    theta, adam_state = adam_step(theta, grad, adam_state, lr)
                _check_finite(theta, "theta", epoch, step)
                step += 1

        dists = {c: eval_dist(theta, c) for c in conditions}  # one per condition
        train_loss = mean_loss(dists, targets)
        val_loss = mean_loss(dists, val_targets)
        tv = float(np.mean([total_variance(dists[c], val_targets[c]) for c in conditions]))
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}: train={train_loss}, val={val_loss}"
            )
        if val_loss < best_val:
            best_val = val_loss
            best_theta = theta.copy()
        trace.append(
            EpochRecord(
                epoch,
                train_loss,
                val_loss,
                tv,
                lr,
                time.perf_counter() - start,
                grad_norm,
                "spsa" if spsa_phase else "adam",
            )
        )
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
