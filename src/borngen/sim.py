"""Dense statevector simulation of small qubit circuits.

Convention: qubit 0 is the least-significant bit of the basis index.
All gate applications are pure (they return a new state) and preserve
the norm to double precision.

Each circuit is compiled once into a program of ops (held by
CircuitSpec.program), and every path runs them through one kernel on a
(batch, 2**n) amplitude array: a single-qubit gate is a 2x2 update of a
(batch, hi, 2, lo) view, a CNOT a swap within a (batch, hi, 2, mid, 2, lo)
view and an RZZ a product with a precomputed sign vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Gate",
    "StateVector",
    "adjoint_gradient",
    "apply_gate",
    "compile_circuit",
    "run_circuit",
    "run_circuit_batch",
    "probabilities",
    "PARAMETERIZED_KINDS",
    "FIXED_KINDS",
]

PARAMETERIZED_KINDS = frozenset({"RY", "RX", "RZZ"})
FIXED_KINDS = frozenset({"CNOT", "H"})
_SINGLE_QUBIT = frozenset({"RY", "RX", "H"})


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate in a circuit: a kind, target qubits and an optional slot.

    Parameterized gates carry either a trainable parameter slot or a data
    slot (for feature-map rotations), never both.
    """

    kind: str
    targets: tuple[int, ...]
    param_slot: Optional[int] = None
    data_slot: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.kind not in PARAMETERIZED_KINDS | FIXED_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in _SINGLE_QUBIT else 2
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if arity == 2 and self.targets[0] == self.targets[1]:
            raise ValueError(f"{self.kind} targets must be distinct")
        parameterized = self.kind in PARAMETERIZED_KINDS
        n_slots = (self.param_slot is not None) + (self.data_slot is not None)
        if parameterized and n_slots != 1:
            raise ValueError(f"{self.kind} needs exactly one of param_slot/data_slot")
        if not parameterized and n_slots != 0:
            raise ValueError(f"{self.kind} takes no slot")

    @property
    def is_parameterized(self) -> bool:
        return self.kind in PARAMETERIZED_KINDS


@dataclass
class StateVector:
    """Complex amplitudes over the 2**n_qubits computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero_state(cls, n_qubits: int) -> "StateVector":
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


_R = 1 / np.sqrt(2.0)
_H_ENTRIES = (_R, _R, _R, -_R)
# dU/dtheta = G U for each parameterized kind; RZZ's G is -i Z@Z, applied
# through its sign vector
_GENERATOR_ENTRIES = {"RY": (0.0, -0.5, 0.5, 0.0), "RX": (0.0, -0.5j, -0.5j, 0.0)}


@dataclass(frozen=True, slots=True)
class _Op:
    """What the kernel needs to apply one gate, computed once; the gate's
    slots stay on the Gate.

    The amplitudes of a single-qubit gate are viewed as (batch, hi, 2, lo)
    and those of a CNOT as (batch, hi, 2, mid, 2, lo), so that each target
    bit is an axis of length 2. signs holds an RZZ's +/-1 Z@Z eigenvalues.
    """

    kind: str
    hi: int = 1
    mid: int = 1
    lo: int = 1
    control_high: bool = False  # a CNOT's control is the higher of its qubits
    signs: Optional[np.ndarray] = None


def _qubit_split(n_qubits: int, qubit: int) -> tuple[int, int]:
    return 2 ** (n_qubits - 1 - qubit), 2**qubit


def _compile_gate(kind: str, targets: tuple[int, ...], n_qubits: int) -> _Op:
    if kind in _SINGLE_QUBIT:
        hi, lo = _qubit_split(n_qubits, targets[0])
        return _Op(kind, hi=hi, lo=lo)
    high, low = max(targets), min(targets)
    if kind == "CNOT":
        hi, mid, lo = 2 ** (n_qubits - 1 - high), 2 ** (high - low - 1), 2**low
        return _Op("CNOT", hi, mid, lo, control_high=targets[0] == high)
    idx = np.arange(2**n_qubits)
    zz = np.where(((idx >> high) & 1) == ((idx >> low) & 1), 1.0, -1.0)
    return _Op("RZZ", signs=zz)


def compile_circuit(circuit) -> tuple[_Op, ...]:
    """Compile a CircuitSpec's gates into the program the kernel runs, one
    op per gate (CircuitSpec.program holds it, so each circuit compiles
    once)."""
    # gates of one kind on the same qubits share an op: a program lives as
    # long as its circuit, so it is kept small
    keys = {(g.kind, g.targets) for g in circuit.gates}
    ops = {key: _compile_gate(*key, circuit.n_qubits) for key in keys}
    return tuple(ops[g.kind, g.targets] for g in circuit.gates)


def _apply_1q(amps: np.ndarray, hi: int, lo: int, m00, m01, m10, m11) -> np.ndarray:
    # axis 2 of the (batch, hi, 2, lo) view is the target bit. Entries are
    # scalars or (batch, 1, 1), one matrix per row.
    v = amps.reshape(amps.shape[0], hi, 2, lo)
    a0, a1 = v[:, :, 0], v[:, :, 1]
    out = np.empty_like(v)
    out[:, :, 0] = m00 * a0 + m01 * a1
    out[:, :, 1] = m10 * a0 + m11 * a1
    return out.reshape(amps.shape)


def _apply(amps: np.ndarray, op: _Op, angle=None) -> np.ndarray:
    """The gate kernel: apply one compiled gate to (batch, dim) amplitudes.

    angle is None for fixed gates, else a scalar or a (batch, 1, 1) array.
    """
    if op.kind == "CNOT":
        # where the control bit is set, swap the target bit's two halves
        v = amps.reshape(amps.shape[0], op.hi, 2, op.mid, 2, op.lo)
        out = v.copy()
        if op.control_high:
            out[:, :, 1] = v[:, :, 1, :, ::-1]
        else:
            out[:, :, :, :, 1] = v[:, :, ::-1, :, 1]
        return out.reshape(amps.shape)
    if op.kind == "RZZ":
        # exp(-i angle Z@Z): eigenvalue +1 when the two bits agree
        phases = np.cos(angle) - 1j * np.sin(angle) * op.signs
        return amps * phases.reshape(-1, amps.shape[1])
    if op.kind == "H":
        return _apply_1q(amps, op.hi, op.lo, *_H_ENTRIES)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if op.kind == "RY":
        return _apply_1q(amps, op.hi, op.lo, c, -s, s, c)
    return _apply_1q(amps, op.hi, op.lo, c, -1j * s, -1j * s, c)  # RX


def _apply_generator(amps: np.ndarray, op: _Op) -> np.ndarray:
    if op.kind == "RZZ":
        return -1j * op.signs * amps
    return _apply_1q(amps, op.hi, op.lo, *_GENERATOR_ENTRIES[op.kind])


def apply_gate(state: StateVector, gate: Gate, angle: Optional[float] = None) -> StateVector:
    """Apply one gate to the state, returning a new StateVector."""
    n = state.n_qubits
    for t in gate.targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
    if gate.is_parameterized and angle is None:
        raise ValueError(f"{gate.kind} requires an angle")
    if not gate.is_parameterized and angle is not None:
        raise ValueError(f"{gate.kind} takes no angle")
    amps = np.asarray(state.amplitudes, dtype=complex)[None]
    return StateVector(n, _apply(amps, _compile_gate(gate.kind, gate.targets, n), angle)[0])


def _check_inputs(circuit, n_theta: int, data_angles) -> None:
    if n_theta != circuit.n_parameters:
        raise ValueError(f"expected {circuit.n_parameters} parameters, got {n_theta}")
    if circuit.n_data_slots and (
        data_angles is None or len(data_angles) != circuit.n_data_slots
    ):
        raise ValueError(f"expected {circuit.n_data_slots} data angles")


def run_circuit(circuit, theta: Sequence[float], data_angles=None) -> StateVector:
    """Run the circuit on |0...0>, returning the final statevector."""
    theta = np.asarray(theta, dtype=float)
    return StateVector(circuit.n_qubits, run_circuit_batch(circuit, theta[None], data_angles)[0])


def run_circuit_batch(circuit, thetas: np.ndarray, data_angles=None) -> np.ndarray:
    """Run the circuit for a batch of parameter vectors at once.

    Returns a (batch, 2**n_qubits) array of amplitudes, one row per
    parameter vector.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_inputs(circuit, thetas.shape[1], data_angles)
    # one (batch, 1, 1) column of angles per slot, broadcast by the kernel
    columns = thetas.T[:, :, None, None]
    amps = np.zeros((thetas.shape[0], 2**circuit.n_qubits), dtype=complex)
    amps[:, 0] = 1.0
    for gate, op in zip(circuit.gates, circuit.program):
        if gate.param_slot is not None:
            amps = _apply(amps, op, columns[gate.param_slot])
        elif gate.data_slot is not None:
            amps = _apply(amps, op, float(data_angles[gate.data_slot]))
        else:
            amps = _apply(amps, op)
    return amps


def adjoint_gradient(
    circuit, theta: Sequence[float], state: np.ndarray, observable: np.ndarray, data_angles=None
) -> np.ndarray:
    """Gradient of <psi|diag(observable)|psi> over the trainable slots.

    state is psi = U(theta)|0...0>, the amplitudes run_circuit returns.
    One backward sweep un-applies each gate to psi and to lambda = O psi,
    adding 2 Re<lambda|G psi> for each trainable gate with generator G
    (adjoint differentiation, Jones & Gacon, arXiv:2009.02823).
    """
    theta = np.asarray(theta, dtype=float)
    _check_inputs(circuit, len(theta), data_angles)
    pair = np.stack([state, observable * state])  # rows psi, lambda
    grad = np.zeros(circuit.n_parameters)
    for gate, op in zip(reversed(circuit.gates), reversed(circuit.program)):
        if gate.param_slot is not None:
            g_psi = _apply_generator(pair[:1], op)[0]
            grad[gate.param_slot] += 2.0 * np.vdot(pair[1], g_psi).real
            pair = _apply(pair, op, -theta[gate.param_slot])
        elif gate.data_slot is not None:
            pair = _apply(pair, op, -float(data_angles[gate.data_slot]))
        else:
            pair = _apply(pair, op)  # H and CNOT are their own inverses
    return grad


def probabilities(state: StateVector, register_bits: Optional[tuple[int, ...]] = None):
    """Born-rule probabilities of the state as a DiscreteDistribution."""
    from .distributions import DiscreteDistribution

    if register_bits is None:
        register_bits = (state.n_qubits,)
    p = np.abs(state.amplitudes) ** 2
    return DiscreteDistribution(p, register_bits)
