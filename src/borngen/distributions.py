"""Discrete probability distributions over register bin tuples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiscreteDistribution", "marginal", "sample"]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over bin tuples.

    The flat index packs the per-feature bin indices with feature 0 in the
    least-significant bits, matching the simulator's qubit ordering
    (qubit 0 = least-significant bit of the basis index).
    """

    probs: np.ndarray
    register_bits: tuple[int, ...]
    names: tuple[str, ...] | None = None

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
        if self.names is not None and len(self.names) != len(bits):
            raise ValueError("one name per register required")

    @property
    def n_features(self) -> int:
        return len(self.register_bits)

    @property
    def n_bins(self) -> tuple[int, ...]:
        return tuple(2**b for b in self.register_bits)

    def bin_coordinates(self) -> np.ndarray:
        """(n_outcomes, n_features) array of bin indices as floats."""
        idx = np.arange(len(self.probs))
        coords = np.empty((len(idx), self.n_features))
        shift = 0
        for j, bits in enumerate(self.register_bits):
            coords[:, j] = (idx >> shift) & (2**bits - 1)
            shift += bits
        return coords


def _feature_index(dist: DiscreteDistribution, feature) -> int:
    if isinstance(feature, str):
        if dist.names is None or feature not in dist.names:
            raise KeyError(f"unknown feature {feature!r}")
        return dist.names.index(feature)
    j = int(feature)
    if not 0 <= j < dist.n_features:
        raise KeyError(f"feature index {j} out of range")
    return j


def marginal(dist: DiscreteDistribution, feature) -> DiscreteDistribution:
    """Marginal distribution of one feature of a joint distribution."""
    j = _feature_index(dist, feature)
    # reshape puts the last feature (high bits) on axis 0
    shape = tuple(2**b for b in reversed(dist.register_bits))
    axis = dist.n_features - 1 - j
    table = dist.probs.reshape(shape)
    keep = [a for a in range(dist.n_features) if a != axis]
    p = table.sum(axis=tuple(keep)) if keep else table
    name = (dist.names[j],) if dist.names is not None else None
    return DiscreteDistribution(p, (dist.register_bits[j],), name)


def sample(dist: DiscreteDistribution, n_shots: int, rng_seed) -> np.ndarray:
    """Draw flat bin indices from the distribution, reproducibly."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    p = dist.probs / dist.probs.sum()
    return rng.choice(len(p), size=n_shots, p=p)
