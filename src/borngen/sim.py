"""Dense statevector simulation of small qubit circuits.

Convention: qubit 0 is the least-significant bit of the basis index.

A circuit runs on |0...0> to its amplitude array: run_circuit gives the
(2**n,) amplitudes psi(theta), run_circuit_batch a (rows, 2**n) array with
one run_circuit row per parameter vector, and |psi|**2 are the Born
probabilities.

Each circuit is compiled once into a program of layers (CircuitSpec.program
holds it). First an H whose next gate on its qubit is an RY or RX moves
into that rotation as its first factor: the rotation's 2x2 matrix is
(cos I + sin G / rate) H. Every other H stays. The scheduler then puts each
gate in the earliest layer of its kind after the last layer that touches
its qubits; the kinds are rotations (RY, RX), H, a CNOT run and RZZ. A
layer's gates commute, and one kernel runs each op of a layer on a
(1, 2**n) amplitude row:
- a rotation or H layer is one Kronecker matrix per block of up to four
  consecutive qubits that it touches, one matmul onto a (1, hi, 2**g, lo)
  view; a sweep builds every rotation block at once, as one gather and one
  product of its factors' entries;
- a CNOT run is one index permutation;
- an RZZ layer is one phase vector exp(-i theta.Z), with Z the layer's
  (gates, 2**n) table of +/-1.
When the circuit is one block, a CNOT run directly before a rotation op
is folded into it: the sweep builds that rotation's matrix as M @ P, with P
the run's permutation matrix, by taking M's columns in permuted order in
the gather that builds M.
A circuit of RY, H and CNOT gates only keeps real amplitudes and runs in
float64; RX and RZZ make it complex128.

A program's start state is the state after its ops before the first
parameterized one, which are H blocks and CNOT runs only; the compiler runs
them once on |0...0>. Every run starts from that state and sweeps every
rotation block from there on, data blocks included, through the program's
one block table, from the angles [0, theta, data angles]. So data angles
enter a run only through its sweep.

adjoint_gradient runs the circuit once, keeping the output psi of each op it reads, then
un-applies the ops to lambda alone. The gates of an op commute (and an H
factor or a folded run comes before them), so each gate's gradient is read
at the op's output:
for a rotation block from the 2**g x 2**g matrix sum conj(lambda) psi^T
against each gate's I x G x I, for an RZZ layer from Z times
2 Im(conj(lambda) psi). These reads run at the end, one stacked matmul per
group of ops with the same layout.

Each op is a single small numpy call on one row, whose cost is its call
overhead. So a program's first gradient or run builds its plan, which
serves every data-angle vector and holds:
- scratch rows for psi and lambda at each read op's output, and two
  temporary rows that the other ops write into in turn;
- a buffer that each sweep's blocks are copied into, with their conjugates
  beside them in a complex program, and each phase op's vector with its
  conjugate, the inverse;
- each op's forward and inverse call, bound once to those fixed views.
A gradient is then one sweep, the forward calls, the backward calls and the
grouped reads. A plan's scratch is (2 reads + 2) states and one or two
copies of the swept blocks: 128 KiB of rows and 7.5 KiB of blocks for the
15 reads and 15 blocks of the default 9-qubit multivariate model, 2.5 KiB
and 20 KiB for the 9 reads and 10 blocks of the 3-qubit, 4-layer
conditional one. A run holds its plan's lock; a run that finds it taken (an
observable_of that itself runs the same circuit, or a run on another
thread) builds a throwaway plan for itself. Every run goes through a plan;
_apply, which makes an op's same call into a new array, only runs the ops
before the first parameterized one, at compile time.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

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


def _is_count(value, minimum: int = 0) -> bool:
    """Whether value is an integer of at least minimum, numpy's included (a
    bool is not one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum


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
        targets = tuple(self.targets)
        if not all(map(_is_count, targets)):
            raise ValueError(f"gate targets must be integers >= 0, not {targets}")
        object.__setattr__(self, "targets", tuple(map(int, targets)))
        for name in ("param_slot", "data_slot"):
            slot = getattr(self, name)
            if slot is not None:
                if not _is_count(slot):
                    raise ValueError(f"gate slots must be integers >= 0, not {name}={slot!r}")
                object.__setattr__(self, name, int(slot))
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


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# dU/dangle = G U for each parameterized kind, with G @ G = -rate**2 I, so
# U(angle) = cos(rate angle) I + sin(rate angle) G / rate. RZZ's 2x2 acts on
# the parity of its two bits: it is diag(exp(-i angle), exp(i angle)).
_GENERATORS = {
    "RY": (0.5, np.array([[0.0, -0.5], [0.5, 0.0]])),
    "RX": (0.5, np.array([[0.0, -0.5j], [-0.5j, 0.0]])),
    "RZZ": (1.0, np.array([[-1j, 0.0], [0.0, 1j]])),
}
# The layer kind of each gate kind. Gates of a CNOT run or an RZZ layer may
# share qubits: a run applies its CNOTs in order, and diagonal gates commute.
_LAYER_KIND = {"RY": "rotation", "RX": "rotation", "H": "H", "CNOT": "CNOT", "RZZ": "RZZ"}
_OVERLAPPING = frozenset({"CNOT", "RZZ"})
_MAX_BLOCK = 4  # up to this many qubits run as one block; more split into blocks of 3


@dataclass(frozen=True, slots=True)
class _Op:
    """One kernel call: a block of a rotation or H layer, a CNOT run or an
    RZZ layer.

    A block acts on the (1, hi, 2**g, lo) view of the amplitudes.
    params is the range of a rotation or phase op's gates in program order.
    table is, by kind:
    - "rotation": twice each gate's generator I x G x I on the block,
      flattened, (k, 4**g), which its _Group stacks; the op's matrix is
      block number `block` of the sweep;
    - "fixed": the constant block matrix, and inverse its inverse;
    - "perm": the run's index permutation (inverse holds its inverse);
    - "phase": Z, the (k, 2**n) table of +/-1.
    """

    kind: str
    hi: int = 1
    lo: int = 1
    params: Optional[slice] = None
    block: int = 0
    table: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = None


@dataclass(frozen=True, slots=True)
class _Group:
    """The rotation or phase ops, from the program's first_trainable on,
    that share a kind, a block (hi, lo) and a gate count. The adjoint reads
    all their gradients at once.

    rows is the group's slice of the program's reads, params its gates'
    entries, op after op, and table the ops' tables stacked, (ops, k, 4**g)
    for rotations; for phases it holds 2 Z, (ops, k, 2**n).
    """

    kind: str
    hi: int
    lo: int
    rows: slice
    params: np.ndarray
    table: np.ndarray


@dataclass(slots=True, eq=False)
class _Program:
    """A compiled circuit: its ops, what a sweep needs to build their
    matrices and phases, and the state that every run starts from.

    The parameterized gates are numbered in op order, and one entry more,
    the identity, fills the unused qubits of a block. Entry k takes its
    angle from column columns[k] of [0, theta, data angles], turns at rate
    rates[k], and feeds gradient slot slots[k] (n_parameters for data gates
    and the identity). Its 2x2 matrix is cos bases[k] + sin generators[k]
    (both flattened): bases[k] is H for a rotation that took an H, else I,
    and generators[k] is generator / rate times bases[k] (0 for the
    identity). The program has one block table: each rotation op's matrix
    is block op.block of every sweep. index is the blocks' _gather_index,
    which also takes the columns of a block with a CNOT run folded in in the
    run's order.
    start, (1, 2**n) and read-only, is the state after the ops before op
    first_swept, the first parameterized one; each run applies the ops from
    there on. The adjoint sweep stops at op first_trainable; reads lists
    the rotation and phase ops from there on, group after group, whose
    gradients it reads.
    dtype is float64 when every gate is RY, H or CNOT, so that the
    amplitudes stay real, and complex128 otherwise. Circuits with the same
    gates share a program, so its arrays are read-only. plan, the one field
    that changes, is the program's _Plan: None until its first run builds
    it.
    """

    ops: tuple[_Op, ...]
    columns: np.ndarray
    rates: np.ndarray
    bases: np.ndarray
    generators: np.ndarray
    slots: np.ndarray
    index: np.ndarray
    start: np.ndarray
    first_swept: int
    first_trainable: int
    reads: tuple[int, ...]
    groups: tuple[_Group, ...]
    dtype: type
    plan: Optional[_Plan] = field(default=None, repr=False)


def _fuse(gates) -> list[tuple[Gate, np.ndarray]]:
    """The gates as (gate, base) pairs, base the 2x2 factor that the gate
    takes first: an H whose next gate on its qubit is an RY or RX leaves
    the list, and that rotation takes H as its base. Every other gate's base
    is I, and an H whose next gate on its qubit is a CNOT, an RZZ or another
    H (or none) stays."""
    entries: list[Optional[tuple[Gate, np.ndarray]]] = []
    pending: dict[int, int] = {}  # each qubit's last gate, where it is an H
    for gate in gates:
        before = [pending.pop(q) for q in gate.targets if q in pending]
        if before and gate.kind in ("RY", "RX"):
            entries[before[0]] = None  # the H moves into the rotation
            entries.append((gate, _H))
            continue
        if gate.kind == "H":
            pending[gate.targets[0]] = len(entries)
        entries.append((gate, _EYE))
    return [entry for entry in entries if entry is not None]


def _schedule(entries) -> list[tuple[str, list]]:
    """The (gate, base) entries as (kind, entries) layers. Each gate goes
    into the earliest layer of its kind after the last layer touching its
    qubits; a CNOT or RZZ may also join that last layer when it is of its
    kind."""
    layers: list[tuple[str, list]] = []
    of_kind: dict[str, list[int]] = {}  # each kind's layer indices, ascending
    last: dict[int, int] = {}  # each qubit's last layer
    for entry in entries:
        gate = entry[0]
        kind = _LAYER_KIND[gate.kind]
        after = max([last.get(q, -1) for q in gate.targets])
        indices = of_kind.setdefault(kind, [])
        if after >= 0 and kind in _OVERLAPPING and layers[after][0] == kind:
            index = after
        elif (i := bisect_right(indices, after)) < len(indices):
            index = indices[i]
        else:
            index = len(layers)
            layers.append((kind, []))
            indices.append(index)
        layers[index][1].append(entry)
        for q in gate.targets:
            last[q] = index
    return layers


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_EYE = np.eye(2)


@lru_cache(maxsize=None)
def _kron_entries(g: int) -> np.ndarray:
    """(g, 4**g): for each entry (i, j) of a g-qubit block, flattened, the
    entry of each 2x2 factor that it takes, the highest qubit first, as an
    index into the g factors' flattened entries."""
    i, j = np.divmod(np.arange(4**g), 2**g)
    bits = [2 * ((i >> p) & 1) + ((j >> p) & 1) for p in range(g - 1, -1, -1)]
    return _frozen(np.array([4 * k + b for k, b in enumerate(bits)]))


def _kron(factors) -> np.ndarray:
    """The Kronecker product of g 2x2 matrices, the highest qubit first."""
    g = len(factors)
    return np.take(np.ravel(factors), _kron_entries(g)).prod(axis=0).reshape(2**g, 2**g)


def _generator_rows(g: int, kinds: list[str], positions: list[int], built: dict) -> np.ndarray:
    """Twice each gate's generator, of these kinds at these positions, on a
    g-qubit block, flattened. built holds the rows that one compile has
    made, by (kind, position), so that it makes each of them once."""
    keys = list(zip(kinds, positions))
    for kind, pos in keys:
        if (kind, pos) not in built:
            factors = [_GENERATORS[kind][1] if p == pos else _EYE for p in range(g - 1, -1, -1)]
            built[kind, pos] = 2.0 * _kron(factors).ravel()
    return _frozen(np.array([built[key] for key in keys]))


def _cnot_run(n_qubits: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The permutation amps[:, perm] that applies these CNOTs in order, and
    its inverse, as intp, the index type that take uses without a cast."""
    idx = np.arange(2**n_qubits, dtype=np.intp)
    perm = idx
    for control, target in pairs:
        perm = perm[idx ^ (((idx >> control) & 1) << target)]
    return _frozen(perm), _frozen(np.argsort(perm))


def _zz_table(n_qubits: int, pairs) -> np.ndarray:
    """(k, 2**n) Z x Z of each pair: +1 where its two bits agree, else -1."""
    idx = np.arange(2**n_qubits)
    parity = np.array([((idx >> a) ^ (idx >> b)) & 1 for a, b in pairs])
    return _frozen(1.0 - 2.0 * parity)


def _blocks_of(n_qubits: int) -> tuple[int, list[int]]:
    """The block size g and each block's lowest qubit: one block for up to
    four qubits, else blocks of three, the top one moved down to fit. Qubit
    q belongs to block q // g."""
    g = n_qubits if n_qubits <= _MAX_BLOCK else 3
    return g, [min(start, n_qubits - g) for start in range(0, n_qubits, g)]


def compile_circuit(circuit) -> _Program:
    """Compile a CircuitSpec's gates into layers and the ops the kernel runs.

    CircuitSpec.program holds the result, so each circuit compiles once, and
    circuits with the same gates share one program (the last 64 are kept), so
    an experiment that builds its circuit anew on every run compiles it once.
    """
    return _compile(circuit.n_qubits, circuit.n_parameters, circuit.gates)


@lru_cache(maxsize=64)
def _compile(n: int, n_theta: int, circuit_gates: tuple[Gate, ...]) -> _Program:
    g, starts = _blocks_of(n)
    ops, params, kron = [], [], []  # params: the parameterized (gate, base) entries
    generator_rows: dict = {}  # each block row, by (kind, position), built once
    for kind, entries in _schedule(_fuse(circuit_gates)):
        if kind == "CNOT":
            perm, inverse = _cnot_run(n, [gate.targets for gate, _ in entries])
            ops.append(_Op("perm", table=perm, inverse=inverse))
        elif kind == "RZZ":
            first = len(params)
            params += entries
            table = _zz_table(n, [gate.targets for gate, _ in entries])
            ops.append(_Op("phase", params=slice(first, len(params)), table=table))
        else:
            by_block: dict[int, list] = {}
            for entry in entries:
                by_block.setdefault(entry[0].targets[0] // g, []).append(entry)
            for b, block_entries in sorted(by_block.items()):
                hi, lo = 2 ** (n - starts[b] - g), 2 ** starts[b]
                positions = [gate.targets[0] - starts[b] for gate, _ in block_entries]
                if kind == "H":
                    h = _frozen(_kron([_H if p in positions else _EYE for p in range(g - 1, -1, -1)]))
                    ops.append(_Op("fixed", hi, lo, table=h, inverse=h))  # H is its own inverse
                    continue
                first = len(params)
                params += block_entries
                factors = [-1] * g  # -1: the identity, the last entry
                for k, pos in enumerate(positions):
                    factors[g - 1 - pos] = first + k
                kron.append(factors)
                rows = _generator_rows(g, [gate.kind for gate, _ in block_entries], positions, generator_rows)
                ops.append(_Op("rotation", hi, lo, slice(first, len(params)), len(kron) - 1, rows))
    ops, perms = _fold(ops, n <= _MAX_BLOCK)
    gates = [gate for gate, _ in params]
    trainable = [gate.param_slot is not None for gate in gates]
    first_swept = next((i for i, op in enumerate(ops) if op.params is not None), len(ops))
    first_trainable = next(
        (i for i, op in enumerate(ops) if op.params and any(trainable[op.params])), len(ops)
    )
    reads, groups = _groups(ops, first_trainable)
    rates = [_GENERATORS[gate.kind][0] for gate in gates]
    generators = np.array(
        [(_GENERATORS[gate.kind][1] / rate) @ base for (gate, base), rate in zip(params, rates)]
        + [np.zeros((2, 2))]
    ).reshape(-1, 4)
    kron = np.array(kron, dtype=int).reshape(-1, g)
    arange = np.arange(2**g, dtype=np.intp)
    column_orders = np.array([perms.get(b, arange) for b in range(len(kron))]) if perms else None
    index = _gather_index(kron % len(generators), column_orders)
    start = np.zeros((1, 2**n), dtype=generators.dtype)  # complex as soon as one RX or RZZ generator is
    start[0, 0] = 1.0
    for op in ops[:first_swept]:  # H blocks and CNOT runs, which take no angle
        start = _apply(start, op, None, None)
    return _Program(
        tuple(ops),
        columns=_frozen(np.array(
            [1 + gate.param_slot if gate.data_slot is None else 1 + n_theta + gate.data_slot
             for gate in gates] + [0]
        )),
        rates=_frozen(np.array(rates + [0.0])),
        bases=_frozen(np.array([base for _, base in params] + [_EYE]).reshape(-1, 4)),
        generators=_frozen(generators),
        slots=_frozen(np.array(
            [n_theta if gate.param_slot is None else gate.param_slot for gate in gates] + [n_theta]
        )),
        index=_frozen(index),
        start=_frozen(start),
        first_swept=first_swept,
        first_trainable=first_trainable,
        reads=reads,
        groups=groups,
        dtype=generators.dtype,
    )


def _fold(ops: list[_Op], one_block: bool) -> tuple[list[_Op], dict[int, np.ndarray]]:
    """When the circuit is one block, fold each CNOT run that comes directly
    before a rotation op into it. Returns the ops left, and the column order
    folded into each block that has one, by block.

    The run's matrix is the permutation matrix P = I[perm], and a rotation
    M after it is M @ P = M[:, argsort(perm)]: the run's inverse permutation
    is the block's column order. d(M P)/dangle = G M P, so the gradient is
    still read at the op's output.
    """
    kept: list[_Op] = []
    perms: dict[int, np.ndarray] = {}
    for op in ops:
        if one_block and op.kind == "rotation" and kept and kept[-1].kind == "perm":
            perms[op.block] = kept.pop().inverse
        kept.append(op)
    return kept, perms


def _groups(ops: list[_Op], first: int) -> tuple[tuple[int, ...], tuple[_Group, ...]]:
    """The program's reads and groups: the rotation and phase ops from op
    first on, grouped by kind, block and gate count, with their tables
    stacked."""
    members: dict[tuple, list[int]] = {}
    for i in range(first, len(ops)):
        op = ops[i]
        if op.params is not None:
            members.setdefault((op.kind, op.hi, op.lo, len(op.table)), []).append(i)
    reads, groups = [], []
    for (kind, hi, lo, _), indices in members.items():
        group_ops = [ops[i] for i in indices]
        table = np.stack([op.table for op in group_ops])
        groups.append(_Group(
            kind, hi, lo,
            rows=slice(len(reads), len(reads) + len(indices)),
            params=_frozen(np.concatenate([np.arange(op.params.start, op.params.stop) for op in group_ops])),
            table=_frozen(2.0 * table if kind == "phase" else table),
        ))
        reads += indices
    return tuple(reads), tuple(groups)


@dataclass(slots=True, eq=False)
class _Plan:
    """A program's scratch memory and its ops' kernel calls, each bound
    once to fixed views of that memory. One plan serves every data-angle
    vector, because data angles only enter through the sweep that load
    copies in.

    states holds one state per row: psi at the output of each read op (psis,
    in the program's read order), lambda at the same outputs (lams), and
    two temporary rows that the ops whose gradient is not read write into
    in turn. blocks[0] is the buffer that each sweep's blocks are copied
    into, and for a complex program blocks[1] holds their conjugates, whose
    transposes are the inverses. Each phase op's exp(-i theta.Z) is
    phases[j, 0] and its conjugate, the inverse, phases[j, 1]; z, one float
    row (none without phase ops), holds theta.Z while it is built.
    phase_ops are those ops' (params, table).

    forward applies the ops from first_swept on in turn from the program's
    start state, ending at psi (a (1, 2**n) view); backward carries lambda
    from lam, the last op's output, back to op first_trainable's. Every
    call is the one that _call makes for its op, so a planned run equals a
    run through _apply bitwise. _plan hands a plan out with its lock held,
    and leaving a with block on it releases the lock.
    """

    states: np.ndarray
    psis: np.ndarray
    lams: np.ndarray
    blocks: np.ndarray
    phases: np.ndarray
    z: np.ndarray
    phase_ops: tuple
    forward: tuple
    backward: tuple
    psi: np.ndarray
    lam: np.ndarray
    lock: threading.Lock = field(default_factory=threading.Lock)

    def __enter__(self) -> _Plan:
        return self

    def __exit__(self, *exc_info) -> None:
        self.lock.release()

    def load(self, angles: np.ndarray, blocks: np.ndarray, inverse: bool = True) -> None:
        """Fill the buffers from one row's sweep; with inverse, also the
        conjugates that the backward calls read."""
        np.copyto(self.blocks[0], blocks)
        if inverse and len(self.blocks) == 2:
            np.conjugate(self.blocks[0], out=self.blocks[1])
        for (params, table), phase in zip(self.phase_ops, self.phases):
            np.matmul(angles[:, params], table, self.z)
            np.multiply(self.z, -1j, phase[0])
            np.exp(phase[0], phase[0])
            if inverse:
                # bitwise exp(theta.Z * 1j), the inverse that _apply builds
                np.conjugate(phase[0], phase[1])


def _build_plan(program: _Program) -> _Plan:
    """The program's scratch memory, and its ops' forward and inverse calls
    from first_swept on, bound to it."""
    first, read_row = program.first_swept, {i: row for row, i in enumerate(program.reads)}
    ops = program.ops[first:]
    rows = [read_row.get(i) for i in range(first, len(program.ops))]
    n_reads = len(program.reads)
    dim, dtype = program.start.shape[1], program.dtype
    states = np.empty((2 * n_reads + 2, dim), dtype)  # C-contiguous: every row reshapes as a view
    psis, lams, temps = states[:n_reads], states[n_reads : 2 * n_reads], states[2 * n_reads :]
    n_blocks, g = program.index.shape[:2]
    blocks = np.empty((1 + (dtype.kind == "c"), n_blocks, 2**g, 2**g), dtype)
    phase_ops = tuple((op.params, op.table) for op in ops if op.kind == "phase")
    phases = np.empty((len(phase_ops), 2, 1, dim), complex)
    operands, next_phase = [], iter(phases)  # each op's forward and inverse operand
    for op in ops:
        if op.kind == "rotation":
            operands.append((blocks[0, op.block], blocks[-1, op.block].T))
        elif op.kind == "phase":
            operands.append(tuple(next(next_phase)))
        else:
            operands.append((op.table, op.inverse))

    def output(buffer, row, taken):  # the op's row of buffer, or the temporary row that is not taken
        if row is not None:
            return buffer[row : row + 1], None
        t = 1 if taken == 0 else 0
        return temps[t : t + 1], t

    forward, source, t = [], program.start, None
    for op, row, (m, _) in zip(ops, rows, operands):
        out, t = output(psis, row, t)
        forward.append(_call(op, source, m, out))
        source = out
    psi = source
    lam, t = output(lams, rows[-1], None)
    backward, source = [], lam
    for i in range(len(ops) - 1, program.first_trainable - first, -1):
        out, t = output(lams, rows[i - 1], t)
        backward.append(_call(ops[i], source, operands[i][1], out))
        source = out
    return _Plan(
        states, psis, lams, blocks, phases,
        z=np.empty((min(len(phase_ops), 1), dim)),
        phase_ops=phase_ops,
        forward=tuple(forward),
        backward=tuple(backward),
        psi=psi,
        lam=lam[0],
    )


def _plan(program: _Program) -> _Plan:
    """The program's plan, built at its first use and locked for this run;
    when another run holds it, a throwaway plan, locked alike. Run it in a
    with block, which releases the lock."""
    plan = program.plan
    if plan is None:
        plan = program.plan = _build_plan(program)
    if not plan.lock.acquire(blocking=False):
        plan = _build_plan(program)
        plan.lock.acquire()
    return plan


_ZERO, _NO_DATA = _frozen(np.zeros(1)), _frozen(np.zeros(0))


def _sweep(program: _Program, theta: np.ndarray, data: np.ndarray):
    """Every entry's angle times its rate at theta and these data angles,
    (1, entries): column columns[k] of [0, theta, data] for entry k; and
    every block's Kronecker matrix, (blocks, 2**g, 2**g)."""
    angles = np.concatenate((_ZERO, theta, data)).take(program.columns)[None] * program.rates
    return angles, _rotation_blocks(angles[0], program.bases, program.generators, program.index)


def _gather_index(kron: np.ndarray, perms: Optional[np.ndarray]) -> np.ndarray:
    """(blocks, g, 4**g): for each block of g entries kron[b], highest qubit
    first, and each entry of its flattened Kronecker matrix, the entry of
    each factor that it takes, as an index into the entries' flattened 2x2
    matrices. With perms, (blocks, 2**g), block b's columns come in the
    order perms[b], so its matrix is M[:, perms[b]]."""
    n_blocks, g = kron.shape
    d = 2**g
    # each factor's own 2x2 entry (0 to 3) for each entry of the block
    within = _kron_entries(g) - 4 * np.arange(g)[:, None]
    index = 4 * kron[:, :, None] + within
    if perms is not None:
        columns = (d * np.arange(d)[:, None] + perms[:, None, :]).reshape(n_blocks, 1, d * d)
        index = np.take_along_axis(index, columns, axis=2)
    return index


def _rotation_blocks(angles: np.ndarray, bases: np.ndarray, generators: np.ndarray,
                     index: np.ndarray) -> np.ndarray:
    """The rotation blocks' Kronecker matrices, (blocks, 2**g, 2**g), from
    each entry's angle times its rate, (entries,): one cos, one sin, and one
    gather (by index, from _gather_index, which also applies the folded
    permutations) and product of the factors' entries."""
    # each entry's 2x2 (cos I + sin G / rate) base, flattened
    m = np.cos(angles)[:, None] * bases + np.sin(angles)[:, None] * generators
    n_blocks, g = index.shape[:2]
    return m.take(index).prod(axis=1).reshape(n_blocks, 2**g, 2**g)


def _apply(amps: np.ndarray, op: _Op, blocks: np.ndarray, angles: np.ndarray,
           inverse: bool = False) -> np.ndarray:
    """Apply one op, or with inverse its inverse, to (1, dim) amplitudes,
    into a new array, through the op's one call.

    blocks and angles come from _sweep; for the inverse, blocks holds the
    conjugate transposes, and a fixed op's inverse holds its own.
    """
    if op.kind == "phase":
        m = np.exp(angles[:, op.params] @ op.table * (1j if inverse else -1j))
    elif op.kind == "rotation":
        m = blocks[op.block]
    else:
        m = op.inverse if inverse else op.table
    out = np.empty(amps.shape, np.result_type(amps, m))
    _call(op, amps, m, out)()
    return out


def _call(op: _Op, amps: np.ndarray, m: np.ndarray, out: np.ndarray):
    """The op's one numpy call, bound to its arrays: apply m, the op's
    (d, d) matrix, permutation or phase vector, to (batch, dim) amplitudes,
    writing into out. amps and out must be C-contiguous, so that their
    reshapes are views."""
    if op.kind == "perm":
        # (the indices are in range: "clip" spares take a copy of out)
        return partial(amps.take, m, 1, out, "clip")
    if op.kind == "phase":
        return partial(np.multiply, amps, m, out)
    batch, d = amps.shape[0], m.shape[-1]
    if op.lo == 1:
        # the block's qubits are the lowest: one product over the last axis
        # (np.dot takes the transposed operand faster than matmul does)
        return partial(np.dot, amps.reshape(batch * op.hi, d), m.T, out.reshape(batch * op.hi, d))
    return partial(np.matmul, m, amps.reshape(batch, op.hi, d, op.lo), out.reshape(batch, op.hi, d, op.lo))


def _read(group: _Group, psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """2 Re<lambda|G psi> for each gate of the group's ops, op after op;
    psi and conj(lambda) hold one row per op, at its output."""
    k = len(psi)
    if group.kind == "phase":
        products = (lam * psi).imag
    else:
        # m = sum over the other qubits of conj(lambda) psi^T on the block
        hi, lo = group.hi, group.lo
        d = psi.shape[1] // (hi * lo)
        if lo == 1:
            m = lam.reshape(k, hi, d).swapaxes(1, 2) @ psi.reshape(k, hi, d)
        elif hi == 1:
            m = lam.reshape(k, d, lo) @ psi.reshape(k, d, lo).swapaxes(1, 2)
        else:  # (k, d, hi lo) @ (k, hi lo, d)
            lam = lam.reshape(k, hi, d, lo).transpose(0, 2, 1, 3).reshape(k, d, hi * lo)
            m = lam @ psi.reshape(k, hi, d, lo).transpose(0, 1, 3, 2).reshape(k, hi * lo, d)
        products = m.reshape(k, d * d)
    return (group.table @ products[..., None]).real.ravel()


def _vector(circuit, theta) -> np.ndarray:
    """theta as a float vector; anything else (a scalar, a matrix) is the
    ValueError that a vector of the wrong length gets."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(
            f"expected {circuit.n_parameters} parameters, got an array of shape {theta.shape}"
        )
    return theta


def _check_inputs(circuit, n_theta: int, data_angles) -> np.ndarray:
    """The data angles as a float vector, empty for None; a vector of
    another length than the circuit's data slots, or any other shape, is a
    ValueError."""
    if n_theta != circuit.n_parameters:
        raise ValueError(f"expected {circuit.n_parameters} parameters, got {n_theta}")
    data = _NO_DATA if data_angles is None else np.asarray(data_angles, dtype=float)
    if data.shape != (circuit.n_data_slots,):
        raise ValueError(f"expected {circuit.n_data_slots} data angles")
    return data


def run_circuit(circuit, theta: Sequence[float], data_angles=None) -> np.ndarray:
    """Run the circuit on |0...0>, returning its (2**n_qubits,) amplitudes."""
    theta = _vector(circuit, theta)
    data, program = _check_inputs(circuit, len(theta), data_angles), circuit.program
    if program.first_swept == len(program.ops):  # no parameterized gate
        return program.start[0].copy()
    with _plan(program) as plan:
        plan.load(*_sweep(program, theta, data), inverse=False)
        for call in plan.forward:
            call()
        return plan.psi[0].copy()  # the caller's own


def run_circuit_batch(circuit, thetas: np.ndarray, data_angles=None) -> np.ndarray:
    """Run the circuit for each row of thetas, (rows, n_parameters), or for
    one 1-D parameter vector as one row.

    Returns a (rows, 2**n_qubits) array of amplitudes of the program's
    dtype, each row run_circuit's for its parameter vector.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array of parameters, got {thetas.ndim} dimensions")
    _check_inputs(circuit, thetas.shape[1], data_angles)
    amps = np.empty((len(thetas), 2**circuit.n_qubits), circuit.program.dtype)
    for row, theta in zip(amps, thetas):
        row[...] = run_circuit(circuit, theta, data_angles)
    return amps


def adjoint_gradient(
    circuit, theta: Sequence[float], observable_of: Callable[[np.ndarray], np.ndarray],
    data_angles=None,
) -> tuple[np.ndarray, np.ndarray]:
    """psi = U(theta)|0...0> and the gradient of <psi|diag(O)|psi> over the
    trainable slots, where O = observable_of(psi) is held fixed.

    One sweep builds every matrix into the program's plan. The forward
    calls run from the program's start state, and each rotation or phase
    op from the first trainable one on writes its output psi into its row
    of the plan; the backward calls un-apply each op to lambda = O psi
    alone, down to that first trainable op, writing lambda at those ops'
    outputs alike. Then 2 Re<lambda|G psi> is read at each op's output for
    each of its gates with generator G (adjoint differentiation, Jones &
    Gacon, arXiv:2009.02823), one stacked read per group of ops. psi, as
    observable_of gets it and as returned, is the caller's own array.
    """
    theta = _vector(circuit, theta)
    data, program = _check_inputs(circuit, len(theta), data_angles), circuit.program
    n = circuit.n_parameters
    if not program.reads:  # no trainable gate
        return run_circuit(circuit, theta, data), np.zeros(n)
    with _plan(program) as plan:
        plan.load(*_sweep(program, theta, data))
        for call in plan.forward:
            call()
        psi = plan.psi[0].copy()
        np.multiply(observable_of(psi), psi, out=plan.lam)
        for call in plan.backward:
            call()
        psis, lams = plan.psis, plan.lams
        if lams.dtype.kind == "c":
            np.conjugate(lams, out=lams)
        values = np.zeros(len(program.slots))
        for group in program.groups:
            values[group.params] = _read(group, psis[group.rows], lams[group.rows])
    return psi, np.bincount(program.slots, weights=values, minlength=n + 1)[:n]
