"""MMD loss with multi-bandwidth Gaussian kernel, gradients and metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .born import BornModel, model_distribution, model_probs_batch
from .distributions import DiscreteDistribution
from .sim import adjoint_gradient, run_circuit

__all__ = [
    "KernelConfig",
    "GramCache",
    "kernel_value",
    "mmd_loss",
    "mmd_loss_samples",
    "mmd_gradient",
    "mmd_gradient_shift",
    "total_variance",
    "pearson_correlation",
]

PAPER_BANDWIDTHS = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths of the summed Gaussian kernel K(x,y) = sum_s exp(-d^2/2s)."""

    bandwidths: tuple[float, ...] = PAPER_BANDWIDTHS

    def __post_init__(self):
        bw = tuple(float(s) for s in self.bandwidths)
        object.__setattr__(self, "bandwidths", bw)
        if not bw or any(s <= 0 for s in bw):
            raise ValueError("bandwidths must be a nonempty list of positive reals")


def _kernel_from_sqdist(sq: np.ndarray, config: KernelConfig) -> np.ndarray:
    out = np.zeros_like(sq, dtype=float)
    for s in config.bandwidths:
        out += np.exp(-sq / (2.0 * s))
    return out


def kernel_value(x, y, config: KernelConfig) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("coordinate dimension mismatch")
    sq = float(np.sum((x - y) ** 2))
    return float(_kernel_from_sqdist(np.asarray(sq), config))


class GramCache:
    """Precomputed kernel matrix over the bin coordinates of a bin layout."""

    def __init__(self, register_bits: tuple[int, ...], config: KernelConfig):
        self.register_bits = tuple(register_bits)
        self.config = config
        probe = DiscreteDistribution(
            np.full(2 ** sum(register_bits), 1.0 / 2 ** sum(register_bits)),
            register_bits,
        )
        coords = probe.bin_coordinates()
        diff = coords[:, None, :] - coords[None, :, :]
        self.matrix = _kernel_from_sqdist((diff**2).sum(axis=-1), config)


def _check_compatible(register_bits: tuple[int, ...], target: DiscreteDistribution):
    if register_bits != target.register_bits:
        raise ValueError(f"bin layouts differ: {register_bits} vs {target.register_bits}")


def _gram(register_bits: tuple[int, ...], config: KernelConfig, cache: Optional[GramCache]):
    if cache is not None and cache.register_bits == register_bits:
        return cache.matrix
    return GramCache(register_bits, config).matrix


def mmd_loss(
    p: DiscreteDistribution,
    target: DiscreteDistribution,
    config: KernelConfig,
    cache: Optional[GramCache] = None,
) -> float:
    """Exact MMD between two distributions on the same bin set."""
    _check_compatible(p.register_bits, target)
    K = _gram(p.register_bits, config, cache)
    d = p.probs - target.probs
    return float(d @ K @ d)


def mmd_loss_samples(x: np.ndarray, y: np.ndarray, config: KernelConfig) -> float:
    """Biased (V-statistic) sample estimator of the MMD on coordinate arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]

    def mean_kernel(a, b):
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return float(_kernel_from_sqdist(sq, config).mean())

    return mean_kernel(x, x) - 2.0 * mean_kernel(x, y) + mean_kernel(y, y)


def _shift_for_kind(kind: str) -> tuple[float, float]:
    """(shift, outer coefficient) of the exact shift rule for one gate kind.

    RY/RX are generated by a Pauli over 2, giving the usual +/- pi/2 rule.
    RZZ here is exp(-i theta Z@Z) without the half, so its distributions
    have doubled frequency in theta: shift by pi/4 and scale by 2.
    """
    if kind in ("RY", "RX"):
        return np.pi / 2.0, 1.0
    if kind == "RZZ":
        return np.pi / 4.0, 2.0
    raise ValueError(f"gate kind {kind} is not parameterized")


def _loss_derivative(p: np.ndarray, target, K: np.ndarray, transform) -> np.ndarray:
    """dL/dp of L = (Tp - t)^T K (Tp - t), with T = I when transform is None."""
    if transform is None:
        return 2.0 * (K @ (p - target.probs))
    return 2.0 * (transform.T @ (K @ (transform @ p - target.probs)))


def mmd_gradient(
    model: BornModel,
    target: DiscreteDistribution,
    config: KernelConfig,
    condition: Optional[float] = None,
    cache: Optional[GramCache] = None,
    transform: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact gradient of the MMD loss by adjoint differentiation.

    With O = diag(dL/dp) held fixed, the loss gradient equals the gradient
    of <psi|O|psi>, so one forward sweep (for psi and O) and one backward
    sweep give every parameter's derivative. transform, when given, is the
    matrix T of a linear channel applied to the probabilities before the
    loss (used to train through readout flips).
    """
    bits = model.circuit.register_bits
    _check_compatible(bits, target)
    data_angles = model.data_angles(condition)
    psi = run_circuit(model.circuit, model.theta, data_angles).amplitudes
    K = _gram(bits, config, cache)
    observable = _loss_derivative(np.abs(psi) ** 2, target, K, transform)
    return adjoint_gradient(model.circuit, model.theta, psi, observable, data_angles)


def mmd_gradient_shift(
    model: BornModel,
    target: DiscreteDistribution,
    config: KernelConfig,
    condition: Optional[float] = None,
    cache: Optional[GramCache] = None,
    transform: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Parameter-shift gradient of the exact MMD loss, from 2n + 1 states.

    The rule hardware would use, kept as the oracle for mmd_gradient.
    """
    p_dist = model_distribution(model, condition)
    _check_compatible(p_dist.register_bits, target)
    K = _gram(p_dist.register_bits, config, cache)
    n = model.circuit.n_parameters

    thetas = np.repeat(model.theta[None], 2 * n, axis=0)
    coeffs = np.empty(n)
    for i in range(n):
        shift, coeffs[i] = _shift_for_kind(model.circuit.slot_gate_kind(i))
        thetas[2 * i, i] += shift
        thetas[2 * i + 1, i] -= shift
    probs = model_probs_batch(model, thetas, condition)
    p = p_dist.probs
    if transform is not None:
        probs = probs @ transform.T
        p = transform @ p
    kv = K @ (p - target.probs)
    return coeffs * ((probs[0::2] - probs[1::2]) @ kv)


def total_variance(p: DiscreteDistribution, target: DiscreteDistribution) -> float:
    """Half the L1 distance between two distributions on the same bins."""
    _check_compatible(p.register_bits, target)
    return float(0.5 * np.abs(p.probs - target.probs).sum())


def pearson_correlation(samples: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of a (n_samples, n_features) array."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d array with at least two samples")
    std = x.std(axis=0)
    if np.any(std == 0):
        bad = [int(j) for j in np.flatnonzero(std == 0)]
        raise ValueError(f"zero-variance feature(s) {bad}: correlation undefined")
    return np.corrcoef(x, rowvar=False)
