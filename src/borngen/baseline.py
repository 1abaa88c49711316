"""Classical baseline: a small MLP generator trained on the sample MMD."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import BinningSpec, discretize
from .metrics import KernelConfig, SampleTarget, mmd_loss_samples, total_variance
from .optimize import AdamState, Schedule, adam_step
from .optimize import _check_finite, _run_epochs
from .sim import _is_count

__all__ = [
    "MlpSpec",
    "GmmdConfig",
    "init_weights",
    "forward",
    "flatten_weights",
    "unflatten_weights",
    "gmmd_batch_loss",
    "gmmd_loss_and_grad",
    "train_gmmd",
    "save_weights",
    "load_weights",
]


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected generator: sigmoid hidden layers, linear output."""

    latent_dim: int
    hidden: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        if not all(_is_count(size, 1) for size in self.layer_sizes):
            raise ValueError(f"all layer sizes must be integers >= 1, not {self.layer_sizes}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.latent_dim, *self.hidden, self.output_dim)


@dataclass(frozen=True)
class GmmdConfig(Schedule):
    """The shared training schedule, run for 100 epochs."""

    max_epochs: int = 100


def init_weights(spec: MlpSpec, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    sizes = spec.layer_sizes
    weights = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(
            (rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out))
        )
    return weights


# Rows per forward block. The 100k-row evaluation batch would otherwise hold
# a 100 MB activation per hidden layer; a 1024-row block of the widest
# (128-unit) layer is 1 MB, so it stays in a core's L2 cache (2 MB on the
# Xeon this was tuned on, where the 100k-row forward took 5-8 % longer in
# 4096-row blocks). Each row's output does not depend on the block.
_FORWARD_ROWS = 1024


def _layers(weights, act):
    """Each layer's activation in turn, computed in place on its matmul."""
    for i, (w, b) in enumerate(weights):
        act = act @ w
        act += b
        if i < len(weights) - 1:  # sigmoid
            np.exp(np.negative(act, out=act), out=act)
            act += 1.0
            np.divide(1.0, act, out=act)
        yield act


def _forward_cache(weights, z):
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return [z, *_layers(weights, z)]


def forward(weights, z: np.ndarray) -> np.ndarray:
    """Map a latent batch to a feature sample batch."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != weights[0][0].shape[0]:
        raise ValueError("latent dimension mismatch")
    out = np.empty((len(z), weights[-1][0].shape[1]))
    for start in range(0, len(z), _FORWARD_ROWS):
        block = slice(start, start + _FORWARD_ROWS)
        for act in _layers(weights, z[block]):
            pass  # keep one layer at a time
        out[block] = act
    return out


def flatten_weights(weights) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in weights])


def unflatten_weights(flat: np.ndarray, spec: MlpSpec):
    weights = []
    pos = 0
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = flat[pos : pos + fan_out]
        pos += fan_out
        weights.append((w.copy(), b.copy()))
    return weights


def gmmd_batch_loss(generated: np.ndarray, data, config: KernelConfig) -> float:
    """Biased sample MMD between a generated and a data batch (an array or a
    SampleTarget)."""
    return mmd_loss_samples(generated, data, config)


def gmmd_loss_and_grad(weights, z: np.ndarray, data: np.ndarray, config: KernelConfig):
    """Loss of one batch and its backpropagated gradient per layer."""
    acts = _forward_cache(weights, z)
    loss, delta = mmd_loss_samples(acts[-1], data, config, grad=True)
    grads = [None] * len(weights)
    for i in reversed(range(len(weights))):
        w, _ = weights[i]
        a_in = acts[i]
        grads[i] = (a_in.T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.T) * acts[i] * (1.0 - acts[i])
    return loss, grads


def train_gmmd(
    spec: MlpSpec,
    dataset: np.ndarray,
    config: GmmdConfig,
    binning: BinningSpec,
    val_dataset: Optional[np.ndarray] = None,
):
    """Train the generator with ADAM on batched sample-MMD; returns the
    best-validation weights and the per-epoch trace, whose tv column is the
    TV on binning's bins between generated events and the validation set.
    Generated events with a NaN or infinite value stop training with a
    TrainingDivergedError."""
    data = np.atleast_2d(np.asarray(dataset, dtype=float))
    if data.shape[1] != spec.output_dim:
        raise ValueError("dataset feature count does not match the net output")
    val = data if val_dataset is None else np.atleast_2d(np.asarray(val_dataset, dtype=float))
    if val.shape[1] != spec.output_dim:
        raise ValueError("validation feature count does not match the net output")

    rng = np.random.default_rng(config.seed)
    flat = flatten_weights(init_weights(spec, config.seed))  # the vector ADAM steps
    adam_state = AdamState.init(len(flat))
    eval_latent = rng.standard_normal((2048, spec.latent_dim))
    val_batch = val[rng.choice(len(val), size=min(len(val), 2048), replace=False)]
    val_target = SampleTarget(val_batch, config.kernel)  # its self-sum once per run
    val_dist = discretize(val, binning)

    def run_epoch(epoch, lr, flat, _best):
        epoch_loss = 0.0
        for step in range(config.batches_per_epoch):
            z = rng.standard_normal((config.batch_size, spec.latent_dim))
            batch = data[rng.integers(0, len(data), size=config.batch_size)]
            weights = unflatten_weights(flat, spec)
            loss, grads = gmmd_loss_and_grad(weights, z, batch, config.kernel)
            _check_finite(loss, "loss", epoch, step)
            epoch_loss += loss / config.batches_per_epoch
            flat_grad = flatten_weights(grads)
            _check_finite(flat_grad, "gradient", epoch, step)
            flat = adam_step(flat, flat_grad, adam_state, lr)
            _check_finite(flat, "weights", epoch, step)
        # the trace records the norm of the epoch's last gradient
        grad_norm = float(np.linalg.norm(flat_grad))
        return flat, {"train_loss": epoch_loss, "grad_norm": grad_norm, "phase": "adam"}

    def evaluate(flat):
        generated = forward(unflatten_weights(flat, spec), eval_latent)
        if not np.isfinite(generated).all():  # no kernel value and no bin: the NaNs stop the run
            return {"val_loss": np.nan, "tv": np.nan}
        val_loss = gmmd_batch_loss(generated, val_target, config.kernel)
        return {"val_loss": val_loss, "tv": total_variance(discretize(generated, binning), val_dist)}

    best_flat, trace = _run_epochs(config, flat, config.max_epochs, run_epoch, evaluate)
    return unflatten_weights(best_flat, spec), trace


def save_weights(weights, spec: MlpSpec, path) -> None:
    payload = {
        "spec": {
            "latent_dim": spec.latent_dim,
            "hidden": list(spec.hidden),
            "output_dim": spec.output_dim,
        },
        "weights": [[w.tolist(), b.tolist()] for w, b in weights],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_weights(path):
    with open(path) as fh:
        payload = json.load(fh)
    spec = MlpSpec(
        payload["spec"]["latent_dim"],
        tuple(payload["spec"]["hidden"]),
        payload["spec"]["output_dim"],
    )
    weights = [(np.asarray(w), np.asarray(b)) for w, b in payload["weights"]]
    return weights, spec
