"""Dense statevector simulation of small qubit circuits.

Convention: qubit 0 is the least-significant bit of the basis index.

A circuit runs on |0...0> to its amplitude array: run_circuit gives the
(2**n,) amplitudes psi(theta), run_circuit_batch a (batch, 2**n) array with
one row per parameter vector, and |psi|**2 are the Born probabilities.
Each circuit is compiled once into a program (held by CircuitSpec.program),
and both run it through one kernel on a (batch, 2**n) amplitude array: a
single-qubit gate is one matmul of its 2x2 matrix onto a (batch, hi, 2, lo)
view, a CNOT a swap within a (batch, hi, 2, mid, 2, lo) view and an RZZ a
product with its phase on each basis state. A sweep builds every
parameterized gate's matrix at once. A circuit of RY, H and CNOT gates only
keeps real amplitudes and runs in float64; RX and RZZ make it complex128.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Gate",
    "adjoint_gradient",
    "compile_circuit",
    "run_circuit",
    "run_circuit_batch",
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


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# dU/dangle = G U for each parameterized kind, with G @ G = -rate**2 I, so
# U(angle) = cos(rate angle) I + sin(rate angle) G / rate. RZZ's 2x2 acts on
# the parity of its two bits: it is diag(exp(-i angle), exp(i angle)).
_GENERATORS = {
    "RY": (0.5, np.array([[0.0, -0.5], [0.5, 0.0]])),
    "RX": (0.5, np.array([[0.0, -0.5j], [-0.5j, 0.0]])),
    "RZZ": (1.0, np.array([[-1j, 0.0], [0.0, 1j]])),
}


@dataclass(frozen=True, slots=True)
class _Op:
    """What the kernel needs to apply one gate, computed once; the gate's
    slots stay on the Gate.

    The amplitudes of a single-qubit gate are viewed as (batch, hi, 2, lo)
    and those of a CNOT as (batch, hi, 2, mid, 2, lo), so that each target
    bit is an axis of length 2. parity holds an RZZ's 0/1 for two bits that
    agree/differ, the row of its 2x2 that applies.
    """

    kind: str
    hi: int = 1
    mid: int = 1
    lo: int = 1
    control_high: bool = False  # a CNOT's control is the higher of its qubits
    parity: Optional[np.ndarray] = None


@dataclass(frozen=True, slots=True)
class _Program:
    """A compiled circuit: one op per gate, and for each parameterized gate
    what a sweep needs to build its matrix.

    The k-th parameterized gate takes its angle from column columns[k] of
    [theta, data angles] and has generator generators[k] with rate rates[k].
    dtype is float64 when every gate is RY, H or CNOT, so that the
    amplitudes stay real, and complex128 otherwise.
    """

    ops: tuple[_Op, ...]
    columns: np.ndarray
    rates: np.ndarray
    generators: np.ndarray
    dtype: type


def _compile_gate(kind: str, targets: tuple[int, ...], n_qubits: int) -> _Op:
    if kind in _SINGLE_QUBIT:
        return _Op(kind, hi=2 ** (n_qubits - 1 - targets[0]), lo=2 ** targets[0])
    high, low = max(targets), min(targets)
    if kind == "CNOT":
        hi, mid, lo = 2 ** (n_qubits - 1 - high), 2 ** (high - low - 1), 2**low
        return _Op("CNOT", hi, mid, lo, control_high=targets[0] == high)
    idx = np.arange(2**n_qubits)
    return _Op("RZZ", parity=(((idx >> high) ^ (idx >> low)) & 1).astype(np.uint8))


def compile_circuit(circuit) -> _Program:
    """Compile a CircuitSpec's gates into the program the kernel runs, one
    op per gate (CircuitSpec.program holds it, so each circuit compiles
    once)."""
    # gates of one kind on the same qubits share an op: a program lives as
    # long as its circuit, so it is kept small
    keys = {(g.kind, g.targets) for g in circuit.gates}
    ops = {key: _compile_gate(*key, circuit.n_qubits) for key in keys}
    params = [g for g in circuit.gates if g.is_parameterized]
    n_theta = circuit.n_parameters
    columns = [g.param_slot if g.data_slot is None else n_theta + g.data_slot for g in params]
    generators = np.array([_GENERATORS[g.kind][1] for g in params]).reshape(-1, 2, 2)
    return _Program(
        tuple(ops[g.kind, g.targets] for g in circuit.gates),
        np.array(columns, dtype=int),
        np.array([_GENERATORS[g.kind][0] for g in params]),
        generators,
        generators.dtype,  # complex as soon as one RX or RZZ generator is
    )


def _matrices(program: _Program, thetas: np.ndarray, data_angles=None) -> np.ndarray:
    """Every parameterized gate's matrix for each row of thetas, as a
    (gates, batch, 2, 2) stack built from one cos and one sin."""
    if data_angles is not None:
        data = np.asarray(data_angles, dtype=float)
        thetas = np.concatenate([thetas, np.broadcast_to(data, (len(thetas), len(data)))], axis=1)
    angles = thetas.T[program.columns] * program.rates[:, None]
    c, s = np.cos(angles)[..., None, None], np.sin(angles)[..., None, None]
    return c * np.eye(2) + s * (program.generators / program.rates[:, None, None])[:, None]


def _apply(amps: np.ndarray, op: _Op, m: Optional[np.ndarray] = None) -> np.ndarray:
    """The gate kernel: apply one compiled gate to (batch, dim) amplitudes.

    m is the gate's 2x2 matrix, or a (batch, 2, 2) stack of one matrix per
    row; it is None for H and CNOT.
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
    if op.kind == "RZZ":  # m is diagonal, over the parity of the two bits
        return amps * np.diagonal(m, axis1=-2, axis2=-1)[..., op.parity]
    if m is None:
        m = _H
    if op.lo == 1:
        # qubit 0: a matmul over the last axis, several times faster than
        # one over a trailing axis of length 1
        return (amps.reshape(amps.shape[0], op.hi, 2) @ m.swapaxes(-1, -2)).reshape(amps.shape)
    v = amps.reshape(amps.shape[0], op.hi, 2, op.lo)
    return (m[..., None, :, :] @ v).reshape(amps.shape)


def _check_inputs(circuit, n_theta: int, data_angles) -> None:
    if n_theta != circuit.n_parameters:
        raise ValueError(f"expected {circuit.n_parameters} parameters, got {n_theta}")
    if circuit.n_data_slots and (
        data_angles is None or len(data_angles) != circuit.n_data_slots
    ):
        raise ValueError(f"expected {circuit.n_data_slots} data angles")


def run_circuit(circuit, theta: Sequence[float], data_angles=None) -> np.ndarray:
    """Run the circuit on |0...0>, returning its (2**n_qubits,) amplitudes."""
    return run_circuit_batch(circuit, np.asarray(theta, dtype=float)[None], data_angles)[0]


def run_circuit_batch(circuit, thetas: np.ndarray, data_angles=None) -> np.ndarray:
    """Run the circuit for a batch of parameter vectors at once.

    Returns a (batch, 2**n_qubits) array of amplitudes, one row per
    parameter vector.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _check_inputs(circuit, thetas.shape[1], data_angles)
    program = circuit.program
    amps = np.zeros((thetas.shape[0], 2**circuit.n_qubits), dtype=program.dtype)
    amps[:, 0] = 1.0
    matrices = iter(_matrices(program, thetas, data_angles))
    for gate, op in zip(circuit.gates, program.ops):
        amps = _apply(amps, op, next(matrices) if gate.is_parameterized else None)
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
    program = circuit.program
    # each gate's inverse is its conjugate transpose; H and CNOT are their own
    inverses = _matrices(program, theta[None], data_angles).conj().swapaxes(-1, -2)
    params = zip(inverses[::-1], program.generators[::-1])
    pair = np.stack([state, observable * state])  # rows psi, lambda
    grad = np.zeros(circuit.n_parameters)
    for gate, op in zip(reversed(circuit.gates), reversed(program.ops)):
        inverse, generator = next(params) if gate.is_parameterized else (None, None)
        if gate.param_slot is not None:
            g_psi = _apply(pair[:1], op, generator)[0]
            grad[gate.param_slot] += 2.0 * np.vdot(pair[1], g_psi).real
        pair = _apply(pair, op, inverse)
    return grad
