"""Discrete probability distributions over register bin tuples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import _is_count

__all__ = ["DiscreteDistribution", "bin_shape", "marginal", "sample"]


def bin_shape(register_bits) -> tuple[int, ...]:
    """The shape whose C-order flat index is the bin index: the bins per
    feature, last feature first. Feature 0 so takes the least-significant
    bits of the index, matching the simulator's qubit ordering (qubit 0 =
    least-significant bit of the basis index)."""
    return tuple(2**b for b in reversed(register_bits))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over bin tuples, indexed as bin_shape lays them
    out."""

    probs: np.ndarray
    register_bits: tuple[int, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        bits = tuple(int(b) for b in self.register_bits)
        object.__setattr__(self, "register_bits", bits)
        if probs.ndim != 1:
            raise ValueError("probs must be one-dimensional")
        if len(probs) != 2 ** sum(bits):
            raise ValueError(
                f"probs length {len(probs)} does not match register bits {bits}"
            )

    @property
    def n_features(self) -> int:
        return len(self.register_bits)

    def bin_coordinates(self) -> np.ndarray:
        """(n_outcomes, n_features) array of each outcome's bin indices."""
        coords = np.unravel_index(np.arange(len(self.probs)), bin_shape(self.register_bits))
        return np.column_stack(coords[::-1])


def marginal(dist: DiscreteDistribution, j: int) -> DiscreteDistribution:
    """Marginal distribution of feature j of a joint distribution. An index
    that is no integer in 0..n_features - 1 (a float, a bool, a string) is
    a KeyError."""
    if not (_is_count(j) and j < dist.n_features):
        raise KeyError(f"feature index {j!r} out of range")
    axis = dist.n_features - 1 - j
    table = dist.probs.reshape(bin_shape(dist.register_bits))
    keep = [a for a in range(dist.n_features) if a != axis]
    p = table.sum(axis=tuple(keep)) if keep else table
    return DiscreteDistribution(p, (dist.register_bits[j],))


# The sampler's guide table (Chen and Asau 1974) has the smallest power of
# 2 of buckets that gives each bin at least _BUCKETS_PER_BIN, up to
# _MAX_BUCKETS. A power of 2, so that u * buckets and cdf * buckets are
# exact.
_BUCKETS_PER_BIN = 64
_MAX_BUCKETS = 65536


def _guide_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """For each of the buckets uniform buckets of [0, 1), the index that
    searchsorted(cdf, u, side="right") gives for every u in it, or -1 where
    that index varies within the bucket.

    Bucket b's draws lie in [lo, hi], with lo the count of cdf <= b / buckets
    and hi the count of cdf < (b + 1) / buckets. With s = cdf * buckets,
    these are the counts of ceil(s) <= b and of floor(s) <= b: one bincount
    and one cumsum each, O(bins + buckets).
    """
    s = cdf * buckets  # in [0, buckets]
    lo = np.bincount(np.ceil(s).astype(np.intp), minlength=buckets + 1)[:buckets].cumsum()
    hi = np.bincount(np.floor(s).astype(np.intp), minlength=buckets + 1)[:buckets].cumsum()
    return np.where(lo == hi, lo, -1)


def sample(dist: DiscreteDistribution, n_shots: int, rng_seed) -> np.ndarray:
    """Draw flat bin indices from the distribution, reproducibly.

    The draws are those of rng.choice(len(p), n_shots, p=p) with p the
    normalised probs: the same cdf, the same rng.random(n_shots) and the
    same searchsorted(cdf, u, side="right"). A guide table of uniform
    buckets, at least _BUCKETS_PER_BIN per bin up to _MAX_BUCKETS, finds
    them: a bucket whose bounds [lo, hi] hold no cdf step gives its draw at
    once, and only draws in the other buckets, at most len(p) / buckets of
    the mass (1 / _BUCKETS_PER_BIN below the cap), are searched.
    Negative, NaN, infinite or all-zero probs are a ValueError.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    probs = dist.probs
    total = probs.sum()
    if not (np.all(probs >= 0) and 0 < total < np.inf):  # NaN too
        raise ValueError("probs must be finite, >= 0 and not all zero")
    rng = np.random.default_rng(rng_seed)  # a Generator is taken as it is
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    buckets = min(1 << (_BUCKETS_PER_BIN * len(probs) - 1).bit_length(), _MAX_BUCKETS)
    guide = _guide_table(cdf, buckets)
    u = rng.random(n_shots)
    draws = guide[(u * buckets).astype(np.intp)]
    step = np.flatnonzero(draws < 0)
    draws[step] = cdf.searchsorted(u[step], side="right")
    return draws
