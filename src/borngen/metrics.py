"""MMD loss with multi-bandwidth Gaussian kernel, gradients and metrics.

The exact MMD's kernel matrix depends only on the bin layout and the
bandwidths, so its factors are built once per process for each
(register bits, KernelConfig) and shared (_gram); no caller passes one in.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .born import BornModel
# perfbench/tracer.py times its born.model_distribution and
# born.model_probs_batch spans through these names
from .born import model_distribution, model_probs_batch  # noqa: F401
from .distributions import DiscreteDistribution
from .sim import adjoint_gradient

__all__ = [
    "KernelConfig",
    "mmd_loss",
    "mmd_loss_samples",
    "SampleTarget",
    "mmd_gradient",
    "total_variance",
    "pearson_correlation",
]

PAPER_BANDWIDTHS = (0.01, 0.1, 1.0, 10.0, 100.0)
# Rows of x per dense sample-kernel tile. The tiles serve samples of more
# than one feature, and one-feature samples that the fast Gauss transform
# below cannot take: an empty sample, a NaN or inf, or a cluster of samples
# wider than 512 sqrt(2s) at the narrowest bandwidth s. Every other
# one-feature sample, the GMMD baseline's among them, takes that transform,
# whose truncation moves each sample pair's kernel value and derivative by
# at most 1e-17 and whose rounding keeps row values within a relative
# 1e-12 of the dense formula (of its |w|-weighted rows, for signed source
# weights), however far the samples sit from 0. A tile's squared distances
# are streamed through multiply, exp and a weighted row sum once
# per bandwidth, so its scratch arrays (T x len(y) float64 each) should
# stay in a core's L2 cache, 2 MB on the Xeon this was tuned on: against a
# 2048-row sample, 64 rows are 1 MB per array and 256 rows 4 MB. A 3-epoch GMMD run, when it
# still ran on the tiles, trained fastest at 64 of the heights 16-256; the
# row sums do not depend on the height.
_TILE_ROWS = 64


def _is_positive_real(value) -> bool:
    """Whether value is a finite real number > 0 (a bool or a string is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidths of the summed Gaussian kernel K(x,y) = sum_s exp(-d^2/2s)."""

    bandwidths: tuple[float, ...] = PAPER_BANDWIDTHS

    def __post_init__(self):
        bw = tuple(self.bandwidths)
        if not bw or not all(map(_is_positive_real, bw)):
            raise ValueError(f"bandwidths must be a nonempty list of finite numbers > 0, not {bw}")
        object.__setattr__(self, "bandwidths", tuple(map(float, bw)))


class GramCache:
    """The kernel matrix over the bin coordinates of a bin layout, kept as
    its per-register factors. Build one through _gram, which shares it.

    Over a product grid of bins the Gaussian kernel factorizes by register:
    K = sum_s E_{s,R-1} x ... x E_{s,0}, with E_{s,r}[i, j] =
    exp(-(i - j)**2 / 2s) over register r's bins. Register 0 holds the
    lowest bits of a bin index, so it is the rightmost factor. apply
    multiplies by K from these factors; with one register they are summed
    over the bandwidths first.
    """

    def __init__(self, register_bits: tuple[int, ...], config: KernelConfig):
        s = np.array(config.bandwidths)[:, None, None]
        factors = []  # (bandwidths, 2**bits, 2**bits) per register, register 0 first
        for bits in register_bits:
            i = np.arange(2**bits, dtype=float)
            factors.append(np.exp(-((i[:, None] - i[None, :]) ** 2) / (2.0 * s)))
        if len(factors) == 1:
            factors = [factors[0].sum(axis=0, keepdims=True)]
        for e in factors:  # shared by every caller of _gram
            e.flags.writeable = False
        self.factors = tuple(factors)

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


@lru_cache(maxsize=64)
def _gram(register_bits: tuple[int, ...], config: KernelConfig) -> GramCache:
    """The GramCache for these bins and this kernel, built on the first call
    and shared by every later call with equal arguments."""
    return GramCache(register_bits, config)


def mmd_loss(p: DiscreteDistribution, target: DiscreteDistribution, config: KernelConfig) -> float:
    """Exact MMD between two distributions on the same bin set."""
    _check_compatible(p.register_bits, target)
    K = _gram(p.register_bits, config)
    d = p.probs - target.probs
    return float(d @ K.apply(d))


def _kernel_rows(
    x: np.ndarray, y: np.ndarray, config: KernelConfig, grad: bool = False, weights=None
):
    """Sums over j of w_j K(x_i, y_j) for (n, d) and (m, d) samples, with
    the per-source weights w_j all 1 when weights is None.

    With grad, also the (n, d) sums over j of w_j dK(x_i, y_j)/dx_i.
    One-feature samples take the fast Gauss transform where it can take them
    (see _gauss_transform_rows); other samples take the dense row tiles.
    """
    if x.shape[1] == 1:
        rows = _gauss_transform_rows(x[:, 0], y[:, 0], config, grad, weights)
        if rows is not None:
            return rows
    return _tiled_rows(x, y, config, grad, weights)


def _tiled_rows(
    x: np.ndarray, y: np.ndarray, config: KernelConfig, grad: bool = False, weights=None
):
    """_kernel_rows from dense row tiles of x against all of y.

    A tile's rows are k @ w per bandwidth. The gradient is formed from the
    differences, sum_j (W w)_ij (y_j - x_i) with W = sum_s K_s / s, one
    feature at a time, so no (n, m, d) array is built. A close pair's
    difference is exact however far the pair sits from 0, where the matmul
    form (W w) @ (y - c) - (W @ w)(x - c) about one centre c per tile rounds
    each term by about 2^-52 times its distance from c: 5e-9 of a gradient
    for a close pair 1e6 from the rest of its tile.
    """
    weights = np.ones(len(y)) if weights is None else weights
    values, grads = np.zeros(len(x)), np.empty_like(x)
    tiles = np.empty((3 + x.shape[1], min(len(x), _TILE_ROWS), len(y)))
    for start in range(0, len(x), _TILE_ROWS):
        tile = slice(start, start + _TILE_ROWS)
        sq, k, w, *diffs = tiles[:, : len(x[tile])]  # diffs: one per feature, kept for grad
        for col, diff in enumerate(diffs):
            np.subtract.outer(x[tile, col], y[:, col], out=diff)
        np.square(diffs[0], out=sq)
        for diff in diffs[1:]:
            sq += np.square(diff, out=k)
        if grad:
            w[:] = 0.0
        for s in config.bandwidths:
            np.exp(np.multiply(sq, -0.5 / s, out=k), out=k)
            values[tile] += k @ weights
            if grad:
                k *= 1.0 / s
                w += k
        if grad:
            w *= weights
            for col, diff in enumerate(diffs):
                grads[tile, col] = -np.einsum("ij,ij->i", w, diff)
    return (values, grads) if grad else values


# The fast Gauss transform of one-feature samples (Greengard and Strain, "The
# fast Gauss transform", SIAM J. Sci. Stat. Comput. 12, 1991). In units of
# sqrt(2s) the kernel is exp(-(t - v)^2). The sources v in a box about c_B,
# with weights w, have the moments A_k = sum w (v - c_B)^k; a target box
# about c_C turns them into Taylor coefficients
# B_l = sum_B sum_k A_k T_D[k, l], D = c_C - c_B, with
#     T_D[k, l] = (-1)^l h_{k+l}(D) / (k! l!),   h_n(x) = H_n(x) exp(-x^2),
# and a target t in that box gets sum_l B_l (t - c_C)^l. The series is exact
# when k and l run to infinity; the code keeps k, l < _TERMS and source boxes
# up to _REACH boxes from the target's box.
#
# Error bound: for each source-target pair, truncation moves the kernel
# value and its t-derivative by at most _PAIR_ERROR = 1e-17 each, a tenth of
# the rounding of one dense term; a row is then off by at most
# 1e-17 sum_j |w_j| before rounding, m * 1e-17 for m sources of weight 1.
# With rho = _BOX_SIDE / 2 the box half-width, |t - c_C| and |v - c_B| are
# at most rho. Cramer's inequality
# |h_n(x)| <= K 2^(n/2) sqrt(n!) exp(-x^2 / 2), K < 1.086435, and
# (k + l)! <= 2^(k+l) k! l! bound each term of the double sum by K e_k e_l
# with e_n = (2 rho)^n / sqrt(n!); in the derivative, e_l becomes
# l e_l / rho. _truncation_errors sums the terms left out, and _TERMS is the
# least p that keeps both sums within _PAIR_ERROR. A source box more than
# _REACH boxes away holds only sources at distance w >= _REACH * _BOX_SIDE,
# whose terms exp(-w^2) and 2w exp(-w^2) are dropped whole.
#
# The box side sets the rounding. Where a target and m sources of weight 1
# share a box, the derivative's terms sum in size to m 4 rho exp(4 rho^2),
# which the gradient itself may cancel to near 0 (with weights, m becomes
# the sum of their |w|). At side 1/4 that is 0.53 m: 600 sources at
# s = 0.01 may lose 5e-13 of an x-gradient, 1.2e-12 at side 1/2.
# Smaller boxes need more of them and a longer reach: on one BLAS thread, a
# 3-epoch train_gmmd took about 10 % longer at side 1/4 than at 1/2, and
# 50 % longer at 1/8.
#
# Rounding of t and v. Samples are placed about the centre of their
# cluster: a run of samples, x and y together, with no gap wider than
# _REACH boxes at the widest bandwidth. Samples of two clusters are then more
# than _REACH boxes apart at every bandwidth, and their pairs are dropped as
# above. Forming t = (x - centre) / sqrt(2s) rounds it by about 2^-52 |t|,
# so a pair's w = t - v is off by at most eps = 2^-51 T, T the largest |t|
# in its cluster, and exp(-w^2) by at most 2 |w| exp(-w^2) eps. Over a row,
# the pairs with |w| <= 4.3 then move it by at most 8.6 eps times
# sum_j |w_j| K(x_i, y_j), and each other pair by at most 8e-8 eps |w_j|.
# With T <= _MAX_T = 256 that is 9.8e-13 of sum_j |w_j| K plus 1e-20
# sum_j |w_j|, within a relative 1e-12 of the dense (n, m) formula when the
# weights are 1. With signed weights, as in the sample MMD's
# c_i = 1/n, -1/m, a row may cancel to near 0, and the relative 1e-12
# holds against sum_j |w_j| K(x_i, y_j) instead. The x-gradient moves by
# at most eps sum_j |w_j| |4 w^2 - 2| exp(-w^2) / sqrt(2s), the rounding of
# a difference x_i - y_j formed T sqrt(2s) from 0. Far from 0, a cluster's
# samples thus keep the accuracy they would have near 0. A cluster wider
# than 2 _MAX_T at the narrowest bandwidth takes the dense tiles.
_PAIR_ERROR = 1e-17
_BOX_SIDE = 0.25
_MAX_T = 256.0
_CRAMER = 1.086435


def _truncation_errors(terms: int) -> tuple[float, float]:
    """Bounds on the value and derivative terms that k, l < terms leave out."""
    n = np.arange(200)
    e = np.exp(n * math.log(_BOX_SIDE) - 0.5 * np.array([math.lgamma(k + 1) for k in n]))
    head, tail = e[:terms].sum(), e[terms:].sum()
    head_n, tail_n = (n * e)[:terms].sum(), (n * e)[terms:].sum()
    value = _CRAMER * tail * (2.0 * head + tail)
    derivative = _CRAMER / (_BOX_SIDE / 2) * (head * tail_n + tail * head_n + tail * tail_n)
    return value, derivative


_TERMS = next(p for p in itertools.count(1) if max(_truncation_errors(p)) <= _PAIR_ERROR)
_REACH = next(
    r for r in itertools.count(1)
    if max(1.0, 2.0 * r * _BOX_SIDE) * math.exp(-((r * _BOX_SIDE) ** 2)) <= _PAIR_ERROR
)
# box offsets D / _BOX_SIDE, target box minus source box
_OFFSETS = np.arange(-_REACH, _REACH + 1)
# Box keys per cluster and bandwidth: its boxes -B - 1 to B, B = _MAX_T /
# _BOX_SIDE, and _REACH + 1 free keys on each side, so that no box of
# another cluster or bandwidth is within reach.
_SLOT = 2 * (int(_MAX_T / _BOX_SIDE) + _REACH + 2)
# Target boxes per gather: each one's neighbour moments take (2R + 1) p
# doubles, 8 kB, so a chunk of them 2 MB, less than the dense tiles' 3 MB
# against 2048 rows. A GMMD call occupies about 170 boxes, one chunk.
_CHUNK_BOXES = 256


def _translation_table() -> np.ndarray:
    """T_D for each offset in _OFFSETS, stacked into one ((2R + 1) p, p) matrix
    so that one matmul takes a target box's gathered moments to its Taylor
    coefficients."""
    d = _BOX_SIDE * _OFFSETS
    h = np.empty((2 * _TERMS - 1, len(d)))
    h[0] = np.exp(-(d**2))
    h[1] = 2.0 * d * h[0]
    for n in range(1, len(h) - 1):  # the Hermite recurrence
        h[n + 1] = 2.0 * d * h[n] - 2.0 * n * h[n - 1]
    k = np.arange(_TERMS)
    inv_fact = 1.0 / np.array([math.factorial(i) for i in k], dtype=float)
    scale = inv_fact[:, None] * ((-1.0) ** k * inv_fact)[None, :]
    return (h[k[:, None] + k[None, :]] * scale[..., None]).transpose(2, 0, 1).reshape(-1, _TERMS)


_TRANSLATION = _translation_table()


def _gauss_transform_rows(
    x: np.ndarray, y: np.ndarray, config: KernelConfig, grad: bool, weights=None
):
    """_kernel_rows of 1-d arrays x and y, with weights on y, by the fast
    Gauss transform, or None where it cannot take them: x or y is empty,
    holds a NaN or inf (the dense tiles then give the same NaN), or has a
    cluster wider than 2 _MAX_T sqrt(2s) at the narrowest bandwidth.

    Every bandwidth runs at once: row i of each (bandwidths, n) array below
    belongs to bandwidth i. Only occupied boxes are kept, so the work is
    O((n + m) p) plus (2R + 1) p^2 per occupied target box, whatever the
    samples' range. Scratch memory is about 2p doubles per sample and
    bandwidth, plus 2 MB for a chunk of target boxes.
    """
    if not (len(x) and len(y)):
        return None
    unit = np.sqrt(2.0 * np.array(config.bandwidths))[:, None]  # of t and v
    x_order, y_order = np.argsort(x), np.argsort(y)
    x_sorted, y_sorted = x[x_order], y[y_order]
    both = np.sort(np.concatenate([x_sorted, y_sorted]), kind="stable")  # merges two runs
    if not (np.isfinite(both[0]) and np.isfinite(both[-1])):  # NaN sorts last
        return None
    gap = np.diff(both) > _REACH * _BOX_SIDE * unit.max()
    low, high = both[np.concatenate(([True], gap))], both[np.concatenate((gap, [True]))]
    half = 0.5 * (high - low)
    if half.max() > _MAX_T * unit.min():
        return None
    centre = low + half
    # the cluster of each sample; one cluster, the usual case, needs no search
    x_cluster, y_cluster = (
        np.searchsorted(low, a, side="right") - 1 if len(low) > 1 else 0
        for a in (x_sorted, y_sorted)
    )
    t, v = (x_sorted - centre[x_cluster]) / unit, (y_sorted - centre[y_cluster]) / unit
    t_box, v_box = np.floor(t / _BOX_SIDE), np.floor(v / _BOX_SIDE)
    # box keys rise along each row, then to the next row
    slots = np.arange(len(unit))[:, None] * len(low)
    t_key, v_key = (
        ((slots + cluster) * _SLOT + _SLOT // 2 + box).astype(np.int64).ravel()
        for cluster, box in ((x_cluster, t_box), (y_cluster, v_box))
    )

    # weighted moments of each occupied source box, and a zero row for empty boxes
    powers = _powers((v - (v_box + 0.5) * _BOX_SIDE).ravel())
    if weights is not None:
        powers.reshape(_TERMS, len(unit), -1)[...] *= weights[y_order]
    starts = np.flatnonzero(_first_of_run(v_key))
    moments = np.zeros((len(starts) + 1, _TERMS))
    moments[:-1] = np.add.reduceat(powers, starts, axis=1).T
    source_keys = v_key[starts]

    # each occupied target box gathers its neighbours' moments
    new_box = _first_of_run(t_key)
    target_keys = t_key[new_box]
    coeffs = np.empty((len(target_keys), _TERMS))
    for start in range(0, len(target_keys), _CHUNK_BOXES):
        want = target_keys[start : start + _CHUNK_BOXES, None] - _OFFSETS
        found = np.minimum(np.searchsorted(source_keys, want), len(source_keys) - 1)
        found[source_keys[found] != want] = len(source_keys)
        coeffs[start : start + len(want)] = moments[found].reshape(len(want), -1) @ _TRANSLATION

    # Horner's rule per target on its box's polynomial, and on its derivative
    rows = coeffs.T[:, np.cumsum(new_box) - 1]
    offset = (t - (t_box + 0.5) * _BOX_SIDE).ravel()
    value, slope = rows[-1].copy(), np.zeros_like(offset)
    for l in range(_TERMS - 2, -1, -1):
        if grad:
            slope *= offset
            slope += value
        value *= offset
        value += rows[l]
    values = np.empty(len(x))
    values[x_order] = value.reshape(len(unit), -1).sum(axis=0)
    if not grad:
        return values
    grads = np.empty((len(x), 1))
    grads[x_order, 0] = (slope.reshape(len(unit), -1) / unit).sum(axis=0)
    return values, grads


def _first_of_run(keys: np.ndarray) -> np.ndarray:
    """Which entries of a sorted key array differ from the one before."""
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _powers(a: np.ndarray) -> np.ndarray:
    """The (p, len(a)) array of a^k for k < p."""
    out = np.empty((_TERMS, len(a)))
    out[0] = 1.0
    out[1] = a
    for k in range(2, _TERMS):
        np.multiply(out[k - 1], a, out=out[k])
    return out


def _self_sum(x: np.ndarray, config: KernelConfig) -> float:
    """Sum over i and j of K(x_i, x_j)."""
    return _kernel_rows(x, x, config).sum()


def _sample_rows(a) -> np.ndarray:
    """An (n, d) float array of samples; a 1-d array holds n one-feature samples."""
    return np.asarray(a, dtype=float).reshape(len(a), -1)


class SampleTarget:
    """A fixed sample and its kernel self-sum, computed once.

    Pass one to mmd_loss_samples in place of y when the same sample is
    compared against many others, as a validation batch is each epoch: a
    value-only call then needs one kernel call, of x against x and the
    target's rows, in place of one over the whole joint sample.
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

    The MMD is a quadratic form over the joint sample z = [x; y]:
    L = sum_ij c_i c_j K(z_i, z_j), c_i = 1/n on x and -1/m on y. One
    weighted kernel-row call gives the rows r_i = sum_j c_j K(z_i, z_j) and
    the loss c . r; with grad it also gives dL/dx_i = (2/n) dr_i/dx_i, and
    returns (loss, dL/dx), dL/dx of shape (n, d). The value-only and grad
    losses sum the same rows, so they are equal.

    y may be a SampleTarget built with the same config. A value-only call
    then takes x against the sources z only, weighted 1/n and -2/m, and
    adds the target's cached self-sum; with grad, its rows stand in for y.
    On the dense tiles (samples of more than one feature) the joint call
    costs (n + m)^2 kernel entries, at most 4/3 of the n^2 + nm + m^2 that
    separate xx, xy and yy blocks would.
    """
    x = _sample_rows(x)
    target = y if isinstance(y, SampleTarget) else None
    if target is not None and target.config != config:
        raise ValueError("the SampleTarget was built with another kernel config")
    rows = target.rows if target is not None else _sample_rows(y)
    n, m = len(x), len(rows)
    if x.shape[1] != rows.shape[1]:
        raise ValueError(f"sample feature counts differ: {x.shape[1]} vs {rows.shape[1]}")
    z = np.concatenate([x, rows])
    if target is not None and not grad:
        weights = np.repeat([1.0 / n, -2.0 / m], [n, m])
        xz = _kernel_rows(x, z, config, weights=weights).sum()
        return float(xz / n + target.self_sum / m**2)
    c = np.repeat([1.0 / n, -1.0 / m], [n, m])
    if not grad:
        return float(c @ _kernel_rows(z, z, config, weights=c))
    values, grads = _kernel_rows(z, z, config, grad=True, weights=c)
    return float(c @ values), 2.0 / n * grads[:n]


def _loss_derivative(p: np.ndarray, target, K: GramCache) -> np.ndarray:
    """dL/dp of L = (p - t)^T K (p - t)."""
    return 2.0 * K.apply(p - target.probs)


def mmd_gradient(
    model: BornModel,
    target: DiscreteDistribution,
    config: KernelConfig,
    condition: Optional[float] = None,
) -> np.ndarray:
    """Exact gradient of the MMD loss by adjoint differentiation.

    With O = diag(dL/dp) held fixed, the loss gradient equals the gradient
    of <psi|O|psi>, so one forward run (for psi and O) and one backward run
    give every parameter's derivative.
    """
    bits = model.circuit.register_bits
    _check_compatible(bits, target)
    K = _gram(bits, config)

    def observable_of(psi):
        return _loss_derivative(np.abs(psi) ** 2, target, K)

    _, grad = adjoint_gradient(model.circuit, model.theta, observable_of, model.data_angles(condition))
    return grad


def total_variance(p: DiscreteDistribution, target: DiscreteDistribution) -> float:
    """Half the L1 distance between two distributions on the same bins."""
    _check_compatible(p.register_bits, target)
    return float(0.5 * np.abs(p.probs - target.probs).sum())


def pearson_correlation(samples: np.ndarray, weights=None) -> np.ndarray:
    """Pearson correlation matrix of a (n_samples, n_features) array, each
    row counted weights[i] times (once when weights is None): the weighted
    mean and covariance of the rows, so rows of bin centres weighted by bin
    counts give the Pearson matrix of the binned events. A feature that
    takes one value on every row of positive weight is an error."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d array with at least two samples")
    w = np.ones(len(x)) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (len(x),) or not (np.all(w >= 0) and 0 < w.sum() < np.inf):
        raise ValueError("need one finite weight >= 0 per sample, not all zero")
    x, w = x[w > 0], w[w > 0] / w.sum()
    constant = np.all(x == x[0], axis=0)
    if np.any(constant):
        bad = [int(j) for j in np.flatnonzero(constant)]
        raise ValueError(f"zero-variance feature(s) {bad}: correlation undefined")
    d = x - w @ x
    cov = (d.T * w) @ d
    std = np.sqrt(np.diag(cov))
    return np.clip(cov / np.outer(std, std), -1.0, 1.0)
