"""Readout bit-flip noise and its mitigation."""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from .distributions import DiscreteDistribution

__all__ = [
    "NoiseConfig",
    "ConfusionMatrix",
    "readout_matrix",
    "apply_readout_noise",
    "mitigate_readout",
    "estimate_confusion_matrix",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Per-qubit readout flip probability, and the seed of calibration shots."""

    readout_flip_prob: Union[float, tuple[float, ...]] = 0.029
    seed: int = 0

    def __post_init__(self):
        prob = self.readout_flip_prob
        probs = prob if isinstance(prob, (list, tuple)) else [prob]
        # a bool or a string is no probability; the range check rejects NaN too
        if not all(isinstance(p, numbers.Real) and not isinstance(p, bool) and 0 <= p < 0.5
                   for p in probs):
            raise ValueError(
                f"readout flip probabilities must be numbers in [0, 0.5), one or a list, not {prob!r}"
            )

    def flip_probs(self, n_qubits: int) -> np.ndarray:
        probs = np.atleast_1d(np.asarray(self.readout_flip_prob, dtype=float))
        if len(probs) == 1:
            return np.full(n_qubits, probs[0])
        if len(probs) != n_qubits:
            raise ValueError(f"expected {n_qubits} per-qubit flip probabilities")
        return probs


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic matrix M[observed][true] over basis states."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(m < -1e-12):
            raise ValueError("confusion matrix entries must be nonnegative")
        if not np.allclose(m.sum(axis=0), 1.0, atol=1e-9):
            raise ValueError("confusion matrix columns must sum to 1")


def readout_matrix(n_qubits: int, config: NoiseConfig) -> ConfusionMatrix:
    """Exact tensor-product confusion matrix of independent bit flips."""
    probs = config.flip_probs(n_qubits)
    factors = [
        np.array([[1.0 - e, e], [e, 1.0 - e]]) for e in probs
    ]
    # qubit 0 is the least-significant bit, hence the last kron factor
    m = reduce(np.kron, reversed(factors))
    return ConfusionMatrix(m)


def apply_readout_noise(
    p_true: DiscreteDistribution, config: NoiseConfig
) -> DiscreteDistribution:
    """Push a distribution through the independent bit-flip channel."""
    n_qubits = sum(p_true.register_bits)
    m = readout_matrix(n_qubits, config).matrix
    return DiscreteDistribution(m @ p_true.probs, p_true.register_bits)


def mitigate_readout(
    p_noisy: DiscreteDistribution, matrix: ConfusionMatrix
) -> DiscreteDistribution:
    """Invert the confusion matrix; clip negatives and renormalize."""
    try:
        p = np.linalg.solve(matrix.matrix, p_noisy.probs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("confusion matrix is singular") from exc
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total == 0:
        raise ValueError("mitigation produced an empty distribution")
    return DiscreteDistribution(p / total, p_noisy.register_bits)


def estimate_confusion_matrix(
    n_qubits: int, config: NoiseConfig, shots_per_basis_state: int
) -> ConfusionMatrix:
    """Calibration columns: prepare each basis state, count noisy readouts."""
    if shots_per_basis_state < 1:
        raise ValueError("need at least one shot per basis state")
    exact = readout_matrix(n_qubits, config).matrix
    rng = np.random.default_rng(config.seed)
    # one row of counts per prepared state, drawn in turn from the stream
    counts = rng.multinomial(shots_per_basis_state, exact.T)
    return ConfusionMatrix(counts.T / shots_per_basis_state)
