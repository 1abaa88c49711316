"""Circuit builders: layered ansatz, multi-register model, conditional model."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .sim import Gate, compile_circuit

__all__ = [
    "CircuitSpec",
    "CorrelationBlockChoice",
    "all_block_choices",
    "build_hardware_efficient",
    "build_1d_rzz_ansatz",
    "build_correlation_block",
    "build_multivariate",
    "build_conditional",
    "encode_condition",
    "circuit_to_json",
    "circuit_from_json",
]


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list with trainable and data parameter slots.

    register_layout maps feature registers to half-open qubit ranges;
    register 0 occupies the lowest qubit indices.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    n_parameters: int
    n_data_slots: int = 0
    register_layout: tuple[tuple[str, tuple[int, int]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        slots = sorted(g.param_slot for g in self.gates if g.param_slot is not None)
        if sorted(set(slots)) != list(range(self.n_parameters)):
            raise ValueError("parameter slots must cover exactly 0..n_parameters-1")
        data = sorted(set(g.data_slot for g in self.gates if g.data_slot is not None))
        if data and (data[0] != 0 or data[-1] != self.n_data_slots - 1):
            raise ValueError("data slots must cover exactly 0..n_data_slots-1")
        for g in self.gates:
            if any(t >= self.n_qubits for t in g.targets):
                raise ValueError(f"gate {g} targets a qubit >= {self.n_qubits}")
        for _, (lo, hi) in self.register_layout:
            if not 0 <= lo < hi <= self.n_qubits:
                raise ValueError("register range outside qubit range")

    @property
    def register_bits(self) -> tuple[int, ...]:
        if not self.register_layout:
            return (self.n_qubits,)
        return tuple(hi - lo for _, (lo, hi) in self.register_layout)

    @property
    def register_names(self) -> tuple[str, ...]:
        if not self.register_layout:
            return ("x",)
        return tuple(name for name, _ in self.register_layout)

    @cached_property
    def program(self) -> tuple:
        """The compiled ops the simulator runs, built on first use."""
        return compile_circuit(self)

    def slot_gate_kind(self, slot: int) -> str:
        for g in self.gates:
            if g.param_slot == slot:
                return g.kind
        raise IndexError(f"no gate owns slot {slot}")


@dataclass(frozen=True)
class CorrelationBlockChoice:
    """One of the eight parameter-free entangling block variants."""

    connectivity: str = "linear"  # linear | full
    depth_pairs: str = "first_only"  # first_only | all
    style: str = "hh_cx"  # hh_cx | bell

    def __post_init__(self):
        if self.connectivity not in ("linear", "full"):
            raise ValueError(f"bad connectivity {self.connectivity!r}")
        if self.depth_pairs not in ("first_only", "all"):
            raise ValueError(f"bad depth_pairs {self.depth_pairs!r}")
        if self.style not in ("hh_cx", "bell"):
            raise ValueError(f"bad style {self.style!r}")

    @property
    def label(self) -> str:
        depth = "1" if self.depth_pairs == "first_only" else "all"
        tail = ", bell" if self.style == "bell" else ""
        return f"({self.connectivity}, {depth}{tail})"


def all_block_choices() -> list[CorrelationBlockChoice]:
    return [
        CorrelationBlockChoice(conn, depth, style)
        for conn in ("linear", "full")
        for depth in ("first_only", "all")
        for style in ("hh_cx", "bell")
    ]


def _register_pairs(n_registers: int, connectivity: str) -> list[tuple[int, int]]:
    if connectivity == "linear":
        return [(r, r + 1) for r in range(n_registers - 1)]
    # full: nearest-neighbour pairs first, then longer-range ones
    pairs = list(combinations(range(n_registers), 2))
    pairs.sort(key=lambda p: (p[1] - p[0], p[0]))
    return pairs


def _default_layout(n_registers, qubits_per_register, names=None):
    if names is None:
        names = [f"q{chr(ord('A') + r)}" for r in range(n_registers)]
    return tuple(
        (names[r], (r * qubits_per_register, (r + 1) * qubits_per_register))
        for r in range(n_registers)
    )


def build_hardware_efficient(n_qubits: int, n_layers: int, with_rx: bool = True) -> CircuitSpec:
    """Layered ansatz: RY (and RX) on all qubits plus a linear CNOT chain,
    with one extra RY layer before measurement."""
    if n_qubits < 1 or n_layers < 0:
        raise ValueError("need n_qubits >= 1 and n_layers >= 0")
    gates: list[Gate] = []
    slot = 0
    for _ in range(n_layers):
        for q in range(n_qubits):
            gates.append(Gate("RY", (q,), param_slot=slot))
            slot += 1
        if with_rx:
            for q in range(n_qubits):
                gates.append(Gate("RX", (q,), param_slot=slot))
                slot += 1
        for q in range(n_qubits - 1):
            gates.append(Gate("CNOT", (q, q + 1)))
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param_slot=slot))
        slot += 1
    return CircuitSpec(n_qubits, tuple(gates), slot)


def build_1d_rzz_ansatz(n_qubits: int) -> CircuitSpec:
    """Single repetition of RY and RX on all qubits, RZZ on every pair,
    then a final RY layer. 2N + N(N-1)/2 + N parameters."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    gates: list[Gate] = []
    slot = 0
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param_slot=slot))
        slot += 1
    for q in range(n_qubits):
        gates.append(Gate("RX", (q,), param_slot=slot))
        slot += 1
    for i, j in combinations(range(n_qubits), 2):
        gates.append(Gate("RZZ", (i, j), param_slot=slot))
        slot += 1
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param_slot=slot))
        slot += 1
    return CircuitSpec(n_qubits, tuple(gates), slot)


def _correlation_gates(
    n_registers: int, qubits_per_register: int, choice: CorrelationBlockChoice
) -> list[Gate]:
    n = qubits_per_register
    idx = lambda reg, i: reg * n + i
    depth = 1 if choice.depth_pairs == "first_only" else n
    gates: list[Gate] = []
    if choice.style == "hh_cx":
        for a, b in _register_pairs(n_registers, choice.connectivity):
            for i in range(depth):
                # literal right-to-left reading of (H x H) . CX
                gates.append(Gate("CNOT", (idx(a, i), idx(b, i))))
                gates.append(Gate("H", (idx(a, i),)))
                gates.append(Gate("H", (idx(b, i),)))
    else:  # bell: Hadamard on the chain head, then a CNOT cascade
        pairs = _register_pairs(n_registers, choice.connectivity)
        for i in range(depth):
            gates.append(Gate("H", (idx(0, i),)))
            for a, b in pairs:
                gates.append(Gate("CNOT", (idx(a, i), idx(b, i))))
    return gates


def build_correlation_block(
    n_registers: int, qubits_per_register: int, choice: CorrelationBlockChoice
) -> CircuitSpec:
    """The parameter-free entangling block between feature registers."""
    if n_registers < 2 or qubits_per_register < 1:
        raise ValueError("need >= 2 registers with >= 1 qubit each")
    gates = _correlation_gates(n_registers, qubits_per_register, choice)
    return CircuitSpec(
        n_registers * qubits_per_register,
        tuple(gates),
        0,
        register_layout=_default_layout(n_registers, qubits_per_register),
    )


def build_multivariate(
    n_registers: int,
    qubits_per_register: int,
    n_repetitions: int,
    choice: CorrelationBlockChoice,
) -> CircuitSpec:
    """Multi-register model: repeated [entangling block, local trainable
    block per register], then a final RY layer on all qubits."""
    if n_registers < 2 or qubits_per_register < 1 or n_repetitions < 0:
        raise ValueError("bad register/repetition counts")
    n = qubits_per_register
    n_qubits = n_registers * n
    gates: list[Gate] = []
    slot = 0
    for _ in range(n_repetitions):
        gates.extend(_correlation_gates(n_registers, n, choice))
        for reg in range(n_registers):
            base = reg * n
            for i in range(n):
                gates.append(Gate("RY", (base + i,), param_slot=slot))
                slot += 1
            for i in range(n - 1):
                gates.append(Gate("CNOT", (base + i, base + i + 1)))
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param_slot=slot))
        slot += 1
    return CircuitSpec(
        n_qubits,
        tuple(gates),
        slot,
        register_layout=_default_layout(n_registers, n),
    )


def build_conditional(n_qubits: int, n_layers: int) -> CircuitSpec:
    """Conditional model: a data-encoding RY layer (one data slot per
    qubit) followed by the layered ansatz with RX rotations."""
    if n_qubits < 1:
        raise ValueError("need n_qubits >= 1")
    base = build_hardware_efficient(n_qubits, n_layers, with_rx=True)
    feature_map = tuple(Gate("RY", (q,), data_slot=q) for q in range(n_qubits))
    return CircuitSpec(
        n_qubits,
        feature_map + base.gates,
        base.n_parameters,
        n_data_slots=n_qubits,
        register_layout=base.register_layout,
    )


def encode_condition(e_in: float, e_min: float, e_max: float) -> float:
    """arcsine min-max encoding of a condition value into a rotation angle."""
    if not e_min < e_max:
        raise ValueError("need e_min < e_max")
    if not e_min <= e_in <= e_max:
        raise ValueError(f"condition {e_in} outside [{e_min}, {e_max}]")
    return float(np.arcsin((e_in - e_min) / (e_max - e_min)))


def circuit_to_json(circuit: CircuitSpec) -> str:
    payload = {
        "n_qubits": circuit.n_qubits,
        "n_parameters": circuit.n_parameters,
        "n_data_slots": circuit.n_data_slots,
        "register_layout": [
            [name, [lo, hi]] for name, (lo, hi) in circuit.register_layout
        ],
        "gates": [
            {
                "kind": g.kind,
                "targets": list(g.targets),
                **({"param_slot": g.param_slot} if g.param_slot is not None else {}),
                **({"data_slot": g.data_slot} if g.data_slot is not None else {}),
            }
            for g in circuit.gates
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def circuit_from_json(text: str) -> CircuitSpec:
    payload = json.loads(text)
    gates = tuple(
        Gate(
            g["kind"],
            tuple(g["targets"]),
            param_slot=g.get("param_slot"),
            data_slot=g.get("data_slot"),
        )
        for g in payload["gates"]
    )
    layout = tuple(
        (name, (int(lo), int(hi))) for name, (lo, hi) in payload["register_layout"]
    )
    return CircuitSpec(
        payload["n_qubits"],
        gates,
        payload["n_parameters"],
        payload["n_data_slots"],
        layout,
    )
