"""MMD loss with multi-bandwidth Gaussian kernel, gradients and metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .born import BornModel, model_distribution, model_probs_batch
from .distributions import DiscreteDistribution
from .sim import adjoint_gradient

__all__ = [
    "KernelConfig",
    "GramCache",
    "kernel_value",
    "mmd_loss",
    "mmd_loss_samples",
    "SampleTarget",
    "mmd_gradient",
    "mmd_gradient_shift",
    "total_variance",
    "pearson_correlation",
]

PAPER_BANDWIDTHS = (0.01, 0.1, 1.0, 10.0, 100.0)
# Rows of x per sample-kernel tile. A tile's squared distances are streamed
# through multiply, exp and a row sum once per bandwidth, so its scratch arrays
# (T x len(y) float64 each) should stay in a core's L2 cache, 2 MB on the
# Xeon this was tuned on: against a 2048-row sample, 64 rows are 1 MB per
# array and 256 rows 4 MB. A 3-epoch GMMD run trained fastest at 64 of the
# heights 16-256; the row sums do not depend on the height.
_TILE_ROWS = 64


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths of the summed Gaussian kernel K(x,y) = sum_s exp(-d^2/2s)."""

    bandwidths: tuple[float, ...] = PAPER_BANDWIDTHS

    def __post_init__(self):
        bw = tuple(float(s) for s in self.bandwidths)
        object.__setattr__(self, "bandwidths", bw)
        if not bw or not all(math.isfinite(s) and s > 0 for s in bw):
            raise ValueError("bandwidths must be a nonempty list of positive reals")


def kernel_value(x, y, config: KernelConfig) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("coordinate dimension mismatch")
    return float(_kernel_rows(x[None], y[None], config)[0])


class GramCache:
    """The kernel matrix over the bin coordinates of a bin layout, kept as
    its per-register factors.

    Over a product grid of bins the Gaussian kernel factorizes by register:
    K = sum_s E_{s,R-1} x ... x E_{s,0}, with E_{s,r}[i, j] =
    exp(-(i - j)**2 / 2s) over register r's bins. Register 0 holds the
    lowest bits of a bin index, so it is the rightmost factor. apply
    multiplies by K from these factors; with one register they are summed
    over the bandwidths first.
    """

    def __init__(self, register_bits: tuple[int, ...], config: KernelConfig):
        self.register_bits = tuple(register_bits)
        self.config = config
        s = np.array(config.bandwidths)[:, None, None]
        self.factors = []  # (bandwidths, 2**bits, 2**bits) per register, register 0 first
        for bits in self.register_bits:
            i = np.arange(2**bits, dtype=float)
            self.factors.append(np.exp(-((i[:, None] - i[None, :]) ** 2) / (2.0 * s)))
        if len(self.factors) == 1:
            self.factors = [self.factors[0].sum(axis=0, keepdims=True)]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """v @ K (K is symmetric) for v of shape (..., bins): one matmul per
        register with the bandwidths stacked, then a sum over them."""
        if len(self.factors) == 1:
            return v @ self.factors[0][0]
        t, lo = v[None], 1
        for e in self.factors:
            d = e.shape[-1]
            if lo == 1:
                t = t.reshape(len(t), -1, d) @ e
            else:  # E_{s,r} on register r's axis of the (bandwidths, hi, d, lo) view
                t = e[:, None] @ t.reshape(len(t), -1, d, lo)
            lo *= d
        return t.sum(axis=0).reshape(v.shape)


def _check_compatible(register_bits: tuple[int, ...], target: DiscreteDistribution):
    if register_bits != target.register_bits:
        raise ValueError(f"bin layouts differ: {register_bits} vs {target.register_bits}")


def _gram(register_bits: tuple[int, ...], config: KernelConfig, cache: Optional[GramCache]):
    """The GramCache for these bins and this config: the given one, or a new
    one when none is given; a cache built for other bins or another config
    is an error."""
    if cache is None:
        return GramCache(register_bits, config)
    if cache.register_bits != register_bits or cache.config != config:
        raise ValueError(
            f"GramCache built for bits {cache.register_bits} with {cache.config}, "
            f"used for bits {register_bits} with {config}"
        )
    return cache


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
    return float(d @ K.apply(d))


def _kernel_rows(x: np.ndarray, y: np.ndarray, config: KernelConfig, grad: bool = False):
    """Sums over j of K(x_i, y_j) for (n, d) and (m, d) samples, in row tiles of x.

    With grad, also the (n, d) sums over j of dK(x_i, y_j)/dx_i, formed as
    W @ y - W.sum(1) x_i with W = sum_s K_s / s; no (n, m, d) array is built.
    """
    values, grads = np.zeros(len(x)), np.empty_like(x)
    tiles = np.empty((3, min(len(x), _TILE_ROWS), len(y)))
    for start in range(0, len(x), _TILE_ROWS):
        tile = slice(start, start + _TILE_ROWS)
        sq, k, w = tiles[:, : len(x[tile])]
        np.square(np.subtract.outer(x[tile, 0], y[:, 0], out=sq), out=sq)
        for col in range(1, x.shape[1]):
            sq += np.square(np.subtract.outer(x[tile, col], y[:, col], out=k), out=k)
        if grad:
            w[:] = 0.0
        for s in config.bandwidths:
            np.exp(np.multiply(sq, -0.5 / s, out=k), out=k)
            values[tile] += k.sum(axis=1)
            if grad:
                k *= 1.0 / s
                w += k
        if grad:
            grads[tile] = w @ y - w.sum(axis=1)[:, None] * x[tile]
    return (values, grads) if grad else values


def _self_sum(x: np.ndarray, config: KernelConfig) -> float:
    """Sum over i and j of K(x_i, x_j), from the row tiles on and above the diagonal.

    K is symmetric, so each tile's block right of the diagonal stands for
    its mirror image too and is counted twice.
    """
    total = 0.0
    for start in range(0, len(x), _TILE_ROWS):
        tile, rest = x[start : start + _TILE_ROWS], x[start + _TILE_ROWS :]
        total += _kernel_rows(tile, tile, config).sum()
        total += 2.0 * _kernel_rows(tile, rest, config).sum()
    return total


def _sample_rows(a) -> np.ndarray:
    """An (n, d) float array of samples; a 1-d array holds n one-feature samples."""
    return np.asarray(a, dtype=float).reshape(len(a), -1)


class SampleTarget:
    """A fixed sample and its kernel self-sum, computed once.

    Pass one to mmd_loss_samples in place of y when the same sample is
    compared against many others, as a validation batch is each epoch.
    np.asarray(target) gives its (m, d) rows, which are read-only so that
    the cached sum stays theirs.
    """

    def __init__(self, y, config: KernelConfig):
        self.rows = np.array(_sample_rows(y))
        self.rows.flags.writeable = False
        self.config = config
        self.self_sum = _self_sum(self.rows, config)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)


def mmd_loss_samples(x: np.ndarray, y, config: KernelConfig, grad: bool = False):
    """Biased (V-statistic) sample MMD of (n, d) arrays, or of 1-d arrays of n values.

    y may be a SampleTarget built with the same config; its self-sum is reused.
    With grad, returns (loss, dL/dx), dL/dx of shape (n, d). That loss sums
    the xx kernel over full rows rather than one triangle, so it can differ
    from the value-only loss by rounding.
    """
    x = _sample_rows(x)
    if not isinstance(y, SampleTarget):
        y = SampleTarget(y, config)
    if y.config != config:
        raise ValueError("the SampleTarget was built with another kernel config")
    n, m = len(x), len(y.rows)
    if x.shape[1] != y.rows.shape[1]:
        raise ValueError(f"sample feature counts differ: {x.shape[1]} vs {y.rows.shape[1]}")
    if not grad:
        xy = _kernel_rows(x, y.rows, config).sum()
        return float(_self_sum(x, config) / n**2 - 2.0 * xy / (n * m) + y.self_sum / m**2)
    (kxx, grad_xx), (kxy, grad_xy) = (_kernel_rows(x, z, config, grad=True) for z in (x, y.rows))
    loss = float(kxx.sum() / n**2 - 2.0 * kxy.sum() / (n * m) + y.self_sum / m**2)
    # d loss / d x_i: both xx terms contribute equally by symmetry
    return loss, 2.0 / n**2 * grad_xx - 2.0 / (n * m) * grad_xy


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


def _loss_derivative(p: np.ndarray, target, K: GramCache, transform) -> np.ndarray:
    """dL/dp of L = (Tp - t)^T K (Tp - t), with T = I when transform is None."""
    if transform is None:
        return 2.0 * K.apply(p - target.probs)
    return 2.0 * (K.apply(transform @ p - target.probs) @ transform)


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
    of <psi|O|psi>, so one forward run (for psi and O) and one backward run
    give every parameter's derivative. transform, when given, is the
    matrix T of a linear channel applied to the probabilities before the
    loss (used to train through readout flips).
    """
    bits = model.circuit.register_bits
    _check_compatible(bits, target)
    K = _gram(bits, config, cache)

    def observable_of(psi):
        return _loss_derivative(np.abs(psi) ** 2, target, K, transform)

    _, grad = adjoint_gradient(model.circuit, model.theta, observable_of, model.data_angles(condition))
    return grad


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
    kv = K.apply(p - target.probs)
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
