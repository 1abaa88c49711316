"""Circuit builders: layered ansatz, multi-register model, conditional model."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count

import numpy as np

from .sim import PARAMETERIZED_KINDS, Gate, _is_count, compile_circuit

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
    "circuit_to_dict",
    "circuit_from_dict",
]


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list with trainable and data parameter slots.

    register_layout maps feature registers to half-open qubit ranges,
    non-empty and consecutive from qubit 0 to n_qubits: register 0 occupies
    the lowest qubit indices, and register_bits keeps only the widths.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    n_parameters: int
    n_data_slots: int = 0
    register_layout: tuple[tuple[str, tuple[int, int]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not _is_count(self.n_qubits, 1):
            raise ValueError(f"need at least one qubit, not n_qubits={self.n_qubits!r}")
        if not (_is_count(self.n_parameters) and _is_count(self.n_data_slots)):
            raise ValueError("slot counts must be integers of at least 0")
        slots = [g.param_slot for g in self.gates if g.param_slot is not None]
        if sorted(set(slots)) != list(range(self.n_parameters)):
            raise ValueError("parameter slots must cover exactly 0..n_parameters-1")
        data = [g.data_slot for g in self.gates if g.data_slot is not None]
        if sorted(set(data)) != list(range(self.n_data_slots)):
            raise ValueError("data slots must cover exactly 0..n_data_slots-1")
        for g in self.gates:
            if any(t >= self.n_qubits for t in g.targets):
                raise ValueError(f"gate {g} targets a qubit >= {self.n_qubits}")
        start = 0
        for name, (lo, hi) in self.register_layout:
            if not (_is_count(lo) and lo == start and _is_count(hi, start + 1)):
                raise ValueError(
                    f"register {name!r} spans {(lo, hi)}, not a non-empty range from qubit {start}"
                )
            start = hi
        if start not in (0, self.n_qubits):
            raise ValueError(f"registers end at qubit {start}, not at n_qubits={self.n_qubits}")

    @property
    def register_bits(self) -> tuple[int, ...]:
        if not self.register_layout:
            return (self.n_qubits,)
        return tuple(hi - lo for _, (lo, hi) in self.register_layout)

    @cached_property
    def program(self):
        """The compiled program the simulator runs, built on first use. Its
        dtype is float when every gate is RY, H or CNOT, else complex."""
        return compile_circuit(self)


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


def _default_layout(n_registers, qubits_per_register):
    return tuple(
        (f"q{chr(ord('A') + r)}", (r * qubits_per_register, (r + 1) * qubits_per_register))
        for r in range(n_registers)
    )


def _on_each(kind: str, qubits: range) -> list[tuple[str, tuple[int, ...]]]:
    return [(kind, (q,)) for q in qubits]


def _cnot_chain(qubits: range) -> list[tuple[str, tuple[int, ...]]]:
    return [("CNOT", (q, q + 1)) for q in qubits[:-1]]


def _numbered(n_qubits: int, gates, register_layout=()) -> CircuitSpec:
    """The circuit of the (kind, targets) gates in order. Each RY, RX and
    RZZ takes the next trainable slot, so theta is stored in gate order."""
    slots = count()
    numbered = tuple(
        Gate(kind, targets, param_slot=next(slots) if kind in PARAMETERIZED_KINDS else None)
        for kind, targets in gates
    )
    n_parameters = sum(g.param_slot is not None for g in numbered)
    return CircuitSpec(n_qubits, numbered, n_parameters, register_layout=register_layout)


def build_hardware_efficient(n_qubits: int, n_layers: int) -> CircuitSpec:
    """Layered ansatz: RY and RX on all qubits plus a linear CNOT chain,
    with one extra RY layer before measurement."""
    if n_qubits < 1 or n_layers < 0:
        raise ValueError("need n_qubits >= 1 and n_layers >= 0")
    qubits = range(n_qubits)
    layer = _on_each("RY", qubits) + _on_each("RX", qubits) + _cnot_chain(qubits)
    return _numbered(n_qubits, layer * n_layers + _on_each("RY", qubits))


def build_1d_rzz_ansatz(n_qubits: int) -> CircuitSpec:
    """Single repetition of RY and RX on all qubits, RZZ on every pair,
    then a final RY layer. 2N + N(N-1)/2 + N parameters."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    qubits = range(n_qubits)
    rzz = [("RZZ", pair) for pair in combinations(qubits, 2)]
    return _numbered(
        n_qubits, _on_each("RY", qubits) + _on_each("RX", qubits) + rzz + _on_each("RY", qubits)
    )


def _correlation_gates(
    n_registers: int, qubits_per_register: int, choice: CorrelationBlockChoice
) -> list[tuple[str, tuple[int, ...]]]:
    n = qubits_per_register
    idx = lambda reg, i: reg * n + i
    depth = 1 if choice.depth_pairs == "first_only" else n
    pairs = _register_pairs(n_registers, choice.connectivity)
    gates = []
    if choice.style == "hh_cx":
        for a, b in pairs:
            for i in range(depth):
                qa, qb = idx(a, i), idx(b, i)
                # literal right-to-left reading of (H x H) . CX
                gates += [("CNOT", (qa, qb)), ("H", (qa,)), ("H", (qb,))]
    else:  # bell: Hadamard on the chain head, then a CNOT cascade
        for i in range(depth):
            gates += [("H", (idx(0, i),))] + [("CNOT", (idx(a, i), idx(b, i))) for a, b in pairs]
    return gates


def build_correlation_block(
    n_registers: int, qubits_per_register: int, choice: CorrelationBlockChoice
) -> CircuitSpec:
    """The parameter-free entangling block between feature registers."""
    if n_registers < 2 or qubits_per_register < 1:
        raise ValueError("need >= 2 registers with >= 1 qubit each")
    return _numbered(
        n_registers * qubits_per_register,
        _correlation_gates(n_registers, qubits_per_register, choice),
        _default_layout(n_registers, qubits_per_register),
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
    n_qubits = n_registers * qubits_per_register
    layout = _default_layout(n_registers, qubits_per_register)
    repetition = _correlation_gates(n_registers, qubits_per_register, choice)
    for _, (lo, hi) in layout:
        repetition += _on_each("RY", range(lo, hi)) + _cnot_chain(range(lo, hi))
    return _numbered(
        n_qubits, repetition * n_repetitions + _on_each("RY", range(n_qubits)), layout
    )


def build_conditional(n_qubits: int, n_layers: int) -> CircuitSpec:
    """Conditional model: a data-encoding RY layer (one data slot per
    qubit) followed by the layered ansatz with RX rotations."""
    if n_qubits < 1:
        raise ValueError("need n_qubits >= 1")
    base = build_hardware_efficient(n_qubits, n_layers)
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


def circuit_to_dict(circuit: CircuitSpec) -> dict:
    """The circuit as a JSON-ready dict, as a checkpoint stores it."""
    return {
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


def circuit_from_dict(payload: dict) -> CircuitSpec:
    """The circuit that circuit_to_dict gave payload for."""
    gates = tuple(
        Gate(
            g["kind"],
            tuple(g["targets"]),
            param_slot=g.get("param_slot"),
            data_slot=g.get("data_slot"),
        )
        for g in payload["gates"]
    )
    layout = tuple((name, (lo, hi)) for name, (lo, hi) in payload["register_layout"])
    return CircuitSpec(
        payload["n_qubits"],
        gates,
        payload["n_parameters"],
        payload["n_data_slots"],
        layout,
    )
