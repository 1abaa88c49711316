"""Readout bit-flip noise, CNOT depolarizing trajectories and mitigation."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import DiscreteDistribution
from .sim import StateVector, _apply, _apply_1q, _qubit_split, run_circuit  # the shared gate kernel

__all__ = [
    "NoiseConfig",
    "ConfusionMatrix",
    "readout_matrix",
    "apply_readout_noise",
    "apply_cnot_depolarizing",
    "mitigate_readout",
    "estimate_confusion_matrix",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Per-qubit readout flip probability and per-CNOT depolarizing rate."""

    readout_flip_prob: Union[float, tuple[float, ...]] = 0.029
    cnot_depol_prob: float = 0.01
    seed: int = 0
    n_trajectories: int = 1000

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.readout_flip_prob, dtype=float))
        if np.any(probs < 0) or np.any(probs >= 0.5):
            raise ValueError("readout flip probabilities must lie in [0, 0.5)")
        if not 0 <= self.cnot_depol_prob <= 1:
            raise ValueError("cnot_depol_prob must lie in [0, 1]")

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
    return DiscreteDistribution(
        m @ p_true.probs, p_true.register_bits, p_true.names, p_true.condition
    )


# (m00, m01, m10, m11) of I, X, Y and Z
_PAULI_ENTRIES = [(1, 0, 0, 1), (0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1)]


def apply_cnot_depolarizing(
    circuit,
    theta: np.ndarray,
    config: NoiseConfig,
    data_angles=None,
    register_bits: Optional[tuple[int, ...]] = None,
) -> DiscreteDistribution:
    """Trajectory-averaged distribution with two-qubit depolarizing noise
    after every CNOT (each error inserts a uniformly random Pauli pair)."""
    if register_bits is None:
        register_bits = circuit.register_bits
    theta = np.asarray(theta, dtype=float)
    q = config.cnot_depol_prob
    if q == 0:
        state = run_circuit(circuit, theta, data_angles)
        return DiscreteDistribution(np.abs(state.amplitudes) ** 2, register_bits)
    rng = np.random.default_rng(config.seed)
    n = circuit.n_qubits
    total = np.zeros(2**n)
    for _ in range(config.n_trajectories):
        amps = StateVector.zero_state(n).amplitudes[None]
        for gate, op in zip(circuit.gates, circuit.program):
            angle = None
            if gate.param_slot is not None:
                angle = theta[gate.param_slot]
            elif gate.data_slot is not None:
                angle = data_angles[gate.data_slot]
            amps = _apply(amps, op, angle)
            if gate.kind == "CNOT" and rng.random() < q:
                for pauli, qubit in zip(rng.integers(0, 4, size=2), gate.targets):
                    if pauli:
                        amps = _apply_1q(amps, *_qubit_split(n, qubit), *_PAULI_ENTRIES[pauli])
        total += np.abs(amps[0]) ** 2
    return DiscreteDistribution(total / config.n_trajectories, register_bits)


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
    return DiscreteDistribution(
        p / total, p_noisy.register_bits, p_noisy.names, p_noisy.condition
    )


def estimate_confusion_matrix(
    n_qubits: int, config: NoiseConfig, shots_per_basis_state: int
) -> ConfusionMatrix:
    """Calibration columns: prepare each basis state, count noisy readouts."""
    if shots_per_basis_state < 1:
        raise ValueError("need at least one shot per basis state")
    exact = readout_matrix(n_qubits, config).matrix
    rng = np.random.default_rng(config.seed)
    dim = 2**n_qubits
    m = np.empty((dim, dim))
    for true_state in range(dim):
        counts = rng.multinomial(shots_per_basis_state, exact[:, true_state])
        m[:, true_state] = counts / shots_per_basis_state
    return ConfusionMatrix(m)
