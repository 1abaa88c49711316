"""Statevector simulator: gate semantics, conventions and invariants."""
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.born import BornModel
from borngen.data import CONDITION_VALUES
from borngen.distributions import DiscreteDistribution
from borngen.metrics import KernelConfig, _gram, _loss_derivative, mmd_gradient
from borngen import experiments, metrics, sim
from borngen.sim import Gate, run_circuit, run_circuit_batch
from borngen.circuits import (
    CircuitSpec,
    CorrelationBlockChoice,
    all_block_choices,
    build_1d_rzz_ansatz,
    build_conditional,
    build_correlation_block,
    build_hardware_efficient,
    build_multivariate,
    encode_condition,
)
from shift_oracle import mmd_gradient_shift

# RY(pi)|0> = |1>: a circuit's leading RY(pi) prepares a set qubit from |0...0>
FLIP = np.pi


def test_ry_rotation_probabilities():
    # RY(pi/3)|0> = cos(pi/6)|0> + sin(pi/6)|1> -> p = (3/4, 1/4)
    circuit = CircuitSpec(1, (Gate("RY", (0,), param_slot=0),), 1)
    p = np.abs(run_circuit(circuit, [np.pi / 3])) ** 2
    assert p == pytest.approx([0.75, 0.25], abs=1e-12)


def test_rx_amplitude_is_imaginary():
    circuit = CircuitSpec(1, (Gate("RX", (0,), param_slot=0),), 1)
    amps = run_circuit(circuit, [np.pi / 2])
    assert amps[0] == pytest.approx(1 / np.sqrt(2))
    assert amps[1] == pytest.approx(-1j / np.sqrt(2))


def test_hadamard_twice_is_identity():
    circuit = CircuitSpec(1, (Gate("H", (0,)), Gate("H", (0,))), 0)
    assert run_circuit(circuit, []) == pytest.approx([1.0, 0.0], abs=1e-12)


def test_cnot_least_significant_bit_convention():
    # qubit 0 is the least-significant bit: |01> is basis index 1 and has
    # qubit 0 set, so CNOT(control=0, target=1) maps it to index 3
    circuit = CircuitSpec(2, (Gate("RY", (0,), param_slot=0), Gate("CNOT", (0, 1))), 1)
    assert run_circuit(circuit, [FLIP])[3] == pytest.approx(1.0)


def test_cnot_control_unset_is_identity():
    # qubit 1 set, qubit 0 (the control) unset: basis index 2 stays
    circuit = CircuitSpec(2, (Gate("RY", (1,), param_slot=0), Gate("CNOT", (0, 1))), 1)
    assert run_circuit(circuit, [FLIP])[2] == pytest.approx(1.0)


def test_rzz_phases_on_agreeing_bits():
    # exp(-i theta Z@Z) multiplies |00> (bits agree) by exp(-i theta)
    theta = 0.7
    circuit = CircuitSpec(2, (Gate("RZZ", (0, 1), param_slot=0),), 1)
    assert run_circuit(circuit, [theta])[0] == pytest.approx(np.exp(-1j * theta))


def test_rzz_phases_on_disagreeing_bits():
    theta = 0.7
    gates = (Gate("RY", (0,), param_slot=0), Gate("RZZ", (0, 1), param_slot=1))
    amps = run_circuit(CircuitSpec(2, gates, 2), [FLIP, theta])
    assert amps[1] == pytest.approx(np.exp(1j * theta))


def test_bell_state():
    circuit = CircuitSpec(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
    p = np.abs(run_circuit(circuit, [])) ** 2
    assert p == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-10)


def test_ghz_state():
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)))
    p = np.abs(run_circuit(CircuitSpec(3, gates, 0), [])) ** 2
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert p == pytest.approx(expected, abs=1e-10)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("RY", (0,))  # parameterized without a slot
    with pytest.raises(ValueError):
        Gate("RY", (0,), param_slot=0, data_slot=0)
    with pytest.raises(ValueError):
        Gate("H", (0,), param_slot=0)


# a 3-qubit circuit of RY, H and CNOT gates, which stays real, and one with RX
_REAL_AND_COMPLEX = pytest.mark.parametrize(
    "circuit, dtype",
    [(build_multivariate(3, 1, 1, CorrelationBlockChoice()), np.float64),
     (build_hardware_efficient(3, 1), np.complex128)],
    ids=["real", "complex"],
)


@_REAL_AND_COMPLEX
def test_run_circuit_returns_one_amplitude_array(circuit, dtype):
    amps = run_circuit(circuit, np.zeros(circuit.n_parameters))
    assert type(amps) is np.ndarray and amps.shape == (8,)
    assert amps.dtype == circuit.program.dtype == dtype


def test_run_circuit_parameter_count_check():
    circuit = CircuitSpec(1, (Gate("RY", (0,), param_slot=0),), 1)
    with pytest.raises(ValueError):
        run_circuit(circuit, [0.1, 0.2])


@pytest.mark.parametrize("n_parameters", [1, 2])
def test_run_circuit_rejects_a_scalar_theta(n_parameters):
    gates = tuple(Gate("RY", (0,), param_slot=k) for k in range(n_parameters))
    circuit = CircuitSpec(1, gates, n_parameters)
    for theta in (0.3, np.float64(0.3), np.array(0.3)):
        with pytest.raises(ValueError, match=f"expected {n_parameters} parameters"):
            run_circuit(circuit, theta)


@pytest.mark.parametrize("n_parameters", [1, 2])
def test_adjoint_gradient_rejects_a_scalar_theta(n_parameters):
    gates = tuple(Gate("RY", (0,), param_slot=k) for k in range(n_parameters))
    circuit = CircuitSpec(1, gates, n_parameters)
    observable_of = lambda psi: np.ones(len(psi))
    for theta in (0.3, np.float64(0.3), np.array(0.3)):
        with pytest.raises(ValueError, match=f"expected {n_parameters} parameters"):
            sim.adjoint_gradient(circuit, theta, observable_of)


@pytest.mark.parametrize(
    "circuit, data_angles",
    [
        (build_conditional(3, 1), None),  # three data slots
        (build_conditional(3, 1), np.zeros(2)),
        (build_conditional(3, 1), np.zeros((3, 1))),  # not a vector
        (build_hardware_efficient(2, 1), [0.3]),  # no data slots
    ],
    ids=["None", "data_angles1", "column", "no_data_slots"],
)
def test_batch_validates_data_angles(circuit, data_angles):
    thetas = np.zeros((2, circuit.n_parameters))
    expected = f"expected {circuit.n_data_slots} data angles"
    with pytest.raises(ValueError, match=expected):
        run_circuit_batch(circuit, thetas, data_angles)
    with pytest.raises(ValueError, match=expected):
        run_circuit(circuit, thetas[0], data_angles)


def test_circuit_compiles_once():
    circuit = build_conditional(3, 1)
    assert circuit.program is circuit.program
    # gates are compiled into layers, one kernel call per layer and block:
    # the 1D ansatz's 18 gates are an RY, an RX, an RZZ and an RY layer
    assert len(build_1d_rzz_ansatz(4).program.ops) == 4
    # an H moves into the rotation after it on its qubit, and a CNOT run
    # folds into the rotation op right after it when the circuit is one block
    multivariate = build_multivariate(3, 3, 4, CorrelationBlockChoice())
    assert len(multivariate.gates) == 93 and len(multivariate.program.ops) == 28
    assert len(build_conditional(3, 4).program.ops) == 10


def _random_circuit(rng, n_qubits, n_gates):
    gates = []
    slot = 0
    kinds = ["RY", "RX", "H"] + (["RZZ", "CNOT"] if n_qubits > 1 else [])
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("RY", "RX", "H"):
            q = int(rng.integers(n_qubits))
            if kind == "H":
                gates.append(Gate("H", (q,)))
            else:
                gates.append(Gate(kind, (q,), param_slot=slot))
                slot += 1
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            if kind == "CNOT":
                gates.append(Gate("CNOT", (int(a), int(b))))
            else:
                gates.append(Gate("RZZ", (int(a), int(b)), param_slot=slot))
                slot += 1
    return CircuitSpec(n_qubits, tuple(gates), slot)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 5))
def test_random_circuits_preserve_norm(seed, n_qubits):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n_qubits, 12)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    psi = run_circuit(circuit, theta)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_batch_matches_single_runs(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, 3, 10)
    thetas = rng.uniform(0, 2 * np.pi, (4, circuit.n_parameters))
    batch = run_circuit_batch(circuit, thetas)
    for i in range(4):
        single = run_circuit(circuit, thetas[i])
        assert (batch[i] == single).all()


def _dense_matrix(gate, angle, n_qubits):
    """The gate as a 2**n x 2**n matrix, built from its definition."""
    idx = np.arange(2**n_qubits)
    bit = lambda q: (idx >> q) & 1
    if gate.kind == "CNOT":
        control, target = gate.targets
        return np.eye(len(idx))[:, idx ^ (bit(control) << target)]
    if gate.kind == "RZZ":
        zz = 1 - 2 * (bit(gate.targets[0]) ^ bit(gate.targets[1]))
        return np.diag(np.exp(-1j * angle * zz))
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    m = {
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "RY": np.array([[c, -s], [s, c]]),
        "RX": np.array([[c, -1j * s], [-1j * s, c]]),
    }[gate.kind]
    q = gate.targets[0]
    return np.kron(np.kron(np.eye(2 ** (n_qubits - 1 - q)), m), np.eye(2**q))


def _dense_state(circuit, theta, data_angles=None):
    """U(theta)|0...0> as a product of dense gate matrices."""
    state = np.zeros(2**circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        angle = 0.0
        if gate.param_slot is not None:
            angle = theta[gate.param_slot]
        elif gate.data_slot is not None:
            angle = data_angles[gate.data_slot]
        state = _dense_matrix(gate, angle, circuit.n_qubits) @ state
    return state


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 4))
def test_kernel_matches_dense_matrices(seed, n_qubits):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n_qubits, 12)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    expected = _dense_state(circuit, theta)
    np.testing.assert_allclose(run_circuit(circuit, theta), expected, atol=1e-12)


@pytest.mark.parametrize("choice", all_block_choices(), ids=lambda c: c.label)
def test_block_models_run_real_and_match_dense_matrices(choice):
    # the multivariate model of exp-multi and exp-blocks: RY, H and CNOT only
    circuit = build_multivariate(3, 3, 4, choice)
    theta = np.random.default_rng(11).uniform(0, 2 * np.pi, circuit.n_parameters)
    amps = run_circuit(circuit, theta)
    assert amps.dtype == np.float64
    np.testing.assert_allclose(amps, _dense_state(circuit, theta), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "circuit",
    [build_conditional(3, 2), build_1d_rzz_ansatz(4), build_hardware_efficient(3, 2)],
    ids=["conditional", "1d-rzz", "hardware-efficient-rx"],
)
def test_rx_rzz_and_data_circuits_run_complex_and_match_dense_matrices(circuit):
    rng = np.random.default_rng(12)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    data_angles = rng.uniform(0, np.pi / 2, circuit.n_data_slots) if circuit.n_data_slots else None
    amps = run_circuit(circuit, theta, data_angles)
    assert amps.dtype == np.complex128
    np.testing.assert_allclose(
        amps, _dense_state(circuit, theta, data_angles), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "circuit, dtype",
    [
        (build_multivariate(2, 2, 2, all_block_choices()[5]), np.float64),
        (build_hardware_efficient(3, 2), np.complex128),
    ],
    ids=["real", "complex"],
)
def test_batch_of_distinct_rows_matches_single_runs(circuit, dtype):
    # each row carries its own matrices, including on qubit 0, whose 2x2
    # the kernel applies along the last axis
    assert any(g.param_slot is not None and g.targets == (0,) for g in circuit.gates)
    thetas = np.random.default_rng(13).uniform(0, 2 * np.pi, (5, circuit.n_parameters))
    batch = run_circuit_batch(circuit, thetas)
    assert batch.dtype == dtype
    for row, theta in zip(batch, thetas):
        single = run_circuit(circuit, theta)
        assert single.dtype == dtype
        assert (row == single).all()


@_REAL_AND_COMPLEX
def test_batch_of_no_rows_is_empty_of_the_program_dtype(circuit, dtype):
    batch = run_circuit_batch(circuit, np.zeros((0, circuit.n_parameters)))
    assert batch.shape == (0, 8) and batch.dtype == circuit.program.dtype == dtype
    with pytest.raises(ValueError, match="expected"):
        run_circuit_batch(circuit, np.zeros((0, circuit.n_parameters + 1)))


def test_batch_of_a_1d_theta_is_one_row():
    circuit = build_conditional(3, 1)
    theta = np.random.default_rng(14).uniform(0, 2 * np.pi, circuit.n_parameters)
    data_angles = np.full(3, 0.4)
    batch = run_circuit_batch(circuit, theta, data_angles)
    assert batch.shape == (1, 8) and batch.dtype == np.complex128
    assert (batch[0] == run_circuit(circuit, theta, data_angles)).all()
    with pytest.raises(ValueError, match="1-D or 2-D"):
        run_circuit_batch(circuit, theta[None, None], data_angles)


def _layered_circuit(rng, n_qubits, real, n_patterns=8):
    """A random circuit of gate patterns that the scheduler moves across
    layer boundaries: H and rotations interleaved on random qubits, runs of
    overlapping CNOTs, RZZ on random pairs, and data-slot rotations."""
    gates, n_slots, n_data = [], 0, 0
    kinds = ["RY"] if real else ["RY", "RX"]

    def rotation(q):
        nonlocal n_slots, n_data
        kind = str(rng.choice(kinds))
        if rng.random() < 0.2:
            gates.append(Gate(kind, (q,), data_slot=n_data))
            n_data += 1
        else:
            gates.append(Gate(kind, (q,), param_slot=n_slots))
            n_slots += 1

    def pair():
        return tuple(int(q) for q in rng.choice(n_qubits, size=2, replace=False))

    patterns = 2 if n_qubits == 1 else 3 if real else 4
    for _ in range(n_patterns):
        qubits = [int(q) for q in rng.permutation(n_qubits)[: rng.integers(1, n_qubits + 1)]]
        pattern = rng.integers(patterns)
        if pattern == 0:  # H and rotations interleaved
            for q in qubits:
                gates.append(Gate("H", (q,)))
                rotation(int(rng.integers(n_qubits)))
        elif pattern == 1:
            for q in qubits:
                rotation(q)
        elif pattern == 2:  # CNOTs that share qubits
            gates.extend(Gate("CNOT", pair()) for _ in range(rng.integers(1, 4)))
        else:
            for _ in range(rng.integers(1, 3)):
                gates.append(Gate("RZZ", pair(), param_slot=n_slots))
                n_slots += 1
    if not real:  # so that the circuit is complex whatever the patterns drew
        gates.append(Gate("RX", (int(rng.integers(n_qubits)),), param_slot=n_slots))
        n_slots += 1
    return CircuitSpec(n_qubits, tuple(gates), n_slots, n_data_slots=n_data)


def _check_layered_program(circuit, rng):
    """Amplitudes against the product of dense gate matrices at 1e-12, and
    the adjoint MMD gradient against the parameter-shift rule at 1e-12."""
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    model = BornModel(circuit, theta, (0.0, 1.0) if circuit.n_data_slots else None)
    condition = rng.uniform(0.0, 1.0) if circuit.n_data_slots else None
    data_angles = model.data_angles(condition)
    np.testing.assert_allclose(
        run_circuit(circuit, theta, data_angles),
        _dense_state(circuit, theta, data_angles),
        rtol=0,
        atol=1e-12,
    )
    p = rng.random(2**circuit.n_qubits)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    config = KernelConfig()
    np.testing.assert_allclose(
        mmd_gradient(model, target, config, condition),
        mmd_gradient_shift(model, target, config, condition),
        rtol=0,
        atol=1e-12,
    )


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 9), real=st.booleans())
def test_layered_programs_match_dense_matrices_and_parameter_shift(seed, n_qubits, real):
    rng = np.random.default_rng(seed)
    circuit = _layered_circuit(rng, n_qubits, real)
    assert circuit.program.dtype == (np.float64 if real else np.complex128)
    _check_layered_program(circuit, rng)


def test_complex_rotations_on_low_qubits_of_nine_match_oracles():
    # RX on qubits 1 and 2 of a 9-qubit state run in the block of qubits 0-2
    gates = [Gate("H", (q,)) for q in range(9)]
    gates += [Gate("RX", (1 + i % 2,), param_slot=i) for i in range(6)]
    gates += [Gate("CNOT", (2, 7)), Gate("RX", (1,), param_slot=6), Gate("RY", (8,), data_slot=0)]
    circuit = CircuitSpec(9, tuple(gates), 7, n_data_slots=1)
    assert [op.kind for op in circuit.program.ops].count("rotation") == 5
    _check_layered_program(circuit, np.random.default_rng(17))


@pytest.mark.parametrize(
    "circuit",
    [build_multivariate(3, 3, 4, CorrelationBlockChoice()), build_conditional(3, 2)],
    ids=["multivariate", "conditional"],
)
def test_gradient_sweeps_the_angles_once(circuit, monkeypatch):
    # the forward and backward runs share one sweep's matrices
    sweep, calls = sim._sweep, []

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(sim, "_sweep", counted)
    rng = np.random.default_rng(5)
    model = BornModel(
        circuit,
        rng.uniform(0, 2 * np.pi, circuit.n_parameters),
        (0.0, 1.0) if circuit.n_data_slots else None,
    )
    p = rng.random(2**circuit.n_qubits)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    mmd_gradient(model, target, KernelConfig(), 0.5 if circuit.n_data_slots else None)
    assert len(calls) == 1


def _unbound_sweep(circuit, theta, data_angles):
    """Every entry's angle times its rate from [0, theta, data angles], and
    every rotation block of the program's one block table, without a plan."""
    program = circuit.program
    source = np.concatenate([[0.0], theta, [] if data_angles is None else data_angles])
    angles = source[None].take(program.columns, axis=1) * program.rates
    return angles, sim._rotation_blocks(angles[0], program.bases, program.generators, program.index)


@pytest.mark.parametrize(
    "circuit",
    [build_conditional(3, 4), build_conditional(2, 2), _random_circuit(np.random.default_rng(3), 3, 40)],
    ids=["conditional", "small-conditional", "random"],
)
def test_folded_cnot_runs_gather_the_blocks_of_the_dense_product(circuit):
    # a CNOT run folded into a rotation block is a column gather of the
    # block's entries, equal bitwise to the matmul M @ F, with F the run's
    # dense matrix; each rotation layer of these one-block circuits is one
    # block, and a run folds into it when it is the layer just before
    program = circuit.program
    layers = sim._schedule(sim._fuse(circuit.gates))
    runs = []  # the CNOT run folded into each rotation block, if any
    for i, (kind, gates) in enumerate(layers):
        if kind == "rotation":
            runs.append(layers[i - 1][1] if i and layers[i - 1][0] == "CNOT" else [])
    # each value of index[b, k] is 4 e plus a 2x2 entry (0 to 3), with e
    # block b's k-th entry, highest qubit first (the identity is the last)
    kron = program.index[:, :, 0] // 4
    assert any(runs) and len(runs) == len(kron)
    rotations = [op for op in program.ops if op.kind == "rotation"]
    rng = np.random.default_rng(8)
    data_angles = rng.uniform(0, np.pi, circuit.n_data_slots) if circuit.n_data_slots else None
    for _ in range(3):
        theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
        angles, blocks = _unbound_sweep(circuit, theta, data_angles)
        plain = sim._rotation_blocks(angles[0], program.bases, program.generators, sim._gather_index(kron, None))
        for op, run in zip(rotations, runs):
            f = np.eye(2**circuit.n_qubits)
            for gate, _ in run:
                f = _dense_matrix(gate, 0.0, circuit.n_qubits) @ f
            assert (blocks[op.block] == plain[op.block] @ f).all()


def _next_on_its_qubit(gates, i):
    """The index of the next gate after gates[i] on its first target, or None."""
    q = gates[i].targets[0]
    return next((j for j in range(i + 1, len(gates)) if q in gates[j].targets), None)


def _receivers(gates):
    """moved, {H index: the index of the rotation after it on its qubit},
    for each H whose next gate on its qubit is an RY or RX; and kept,
    {H index: the kind of the gate after it on its qubit, or None}, for
    every other H."""
    moved, kept = {}, {}
    for i, gate in enumerate(gates):
        if gate.kind == "H":
            j = _next_on_its_qubit(gates, i)
            if j is not None and gates[j].kind in ("RY", "RX"):
                moved[i] = j
            else:
                kept[i] = None if j is None else gates[j].kind
    return moved, kept


@pytest.mark.parametrize("choice", all_block_choices(), ids=lambda choice: choice.label)
def test_fused_blocks_are_the_unfused_blocks_times_their_h_factors(choice, monkeypatch):
    # an H moves into the RY after it on its qubit, as its 2x2 base; the
    # unfused program keeps every H as a fixed op and the same rotation
    # blocks, so that each fused block is the unfused one times the H
    # factors of its entries
    circuit = build_multivariate(3, 3, 4, choice)
    fused = circuit.program
    monkeypatch.setattr(sim, "_fuse", lambda gates: [(gate, sim._EYE) for gate in gates])
    unfused = sim._compile.__wrapped__(circuit.n_qubits, circuit.n_parameters, circuit.gates)
    identity = np.eye(2).ravel()
    assert (unfused.bases == identity).all()
    entries = fused.index[:, :, 0] // 4  # each block's entries, highest qubit first
    assert (entries == unfused.index[:, :, 0] // 4).all()
    moved, _ = _receivers(circuit.gates)
    assert bool(moved) == (choice.style == "hh_cx")  # a bell block's H is followed by a CNOT
    assert (fused.bases != identity).any(axis=1).sum() == len(moved)
    if choice == CorrelationBlockChoice():
        assert ("fixed", 64, 1) not in [(op.kind, op.hi, op.lo) for op in fused.ops]
        assert (len(fused.ops), fused.first_swept) == (28, 3)
    rng = np.random.default_rng(31)
    for _ in range(3):
        theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
        angles, blocks = _unbound_sweep(circuit, theta, None)
        plain = sim._rotation_blocks(angles[0], unfused.bases, unfused.generators, unfused.index)
        for b, block_entries in enumerate(entries):
            h = sim._kron([fused.bases[e].reshape(2, 2) for e in block_entries])
            np.testing.assert_allclose(blocks[b], plain[b] @ h, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "circuit",
    [build_multivariate(3, 3, 4, choice) for choice in all_block_choices()]
    + [build_conditional(3, 4), build_1d_rzz_ansatz(4)],
    ids=[choice.label for choice in all_block_choices()] + ["conditional", "1d-rzz"],
)
def test_each_generator_row_is_built_once_per_compile(circuit, monkeypatch):
    # a g-qubit block has at most 2g distinct rows (RY or RX at each
    # position); each H block takes one more Kronecker product
    g, starts = sim._blocks_of(circuit.n_qubits)
    rows = {(gate.kind, gate.targets[0] - starts[gate.targets[0] // g])
            for gate in circuit.gates if gate.kind in ("RY", "RX")}
    calls = []
    kron = sim._kron
    monkeypatch.setattr(sim, "_kron", lambda factors: calls.append(1) or kron(factors))
    for _ in range(2):  # and built anew by the next compile: no cache across compiles
        calls.clear()
        program = sim._compile.__wrapped__(circuit.n_qubits, circuit.n_parameters, circuit.gates)
        fixed = sum(op.kind == "fixed" for op in program.ops)
        assert len(calls) == len(rows) + fixed
    assert len(rows) <= 2 * g


@pytest.mark.parametrize("seed", range(6))
def test_an_h_before_a_cnot_or_rzz_stays_a_fixed_op(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, 4, 40)
    gates = circuit.gates
    moved, kept = _receivers(gates)
    assert {"CNOT", "RZZ"} & set(kept.values())
    # the H gates left are the ones whose next gate on their qubit is no
    # rotation, and each rotation after a moved H takes it as its base
    entries = sim._fuse(gates)
    left = [i for i in range(len(gates)) if i not in moved]
    assert [gate for gate, _ in entries] == [gates[i] for i in left]
    assert [base is sim._H for _, base in entries] == [i in moved.values() for i in left]
    program = circuit.program
    assert 0 < sum(op.kind == "fixed" for op in program.ops) <= len(kept)
    assert (program.bases != np.eye(2).ravel()).any(axis=1).sum() == len(moved)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    np.testing.assert_allclose(run_circuit(circuit, theta), _dense_state(circuit, theta), atol=1e-12)


def _unbound_gradient(circuit, theta, observable_of, data_angles):
    """The adjoint gradient run through _apply over every op from |0...0>,
    keeping every state: the reference that a planned run, which starts
    from the program's start state, must equal bitwise."""
    program = circuit.program
    angles, blocks = _unbound_sweep(circuit, theta, data_angles)
    states = [np.zeros((1, 2**circuit.n_qubits), dtype=program.dtype)]
    states[0][0, 0] = 1.0
    for op in program.ops:
        states.append(sim._apply(states[-1], op, blocks, angles))
    psi = states[-1][0]
    inverses = blocks.swapaxes(-1, -2).conj() if blocks.dtype.kind == "c" else blocks.swapaxes(-1, -2)
    lams = [None] * len(program.ops) + [(observable_of(psi) * psi)[None]]
    for i in range(len(program.ops) - 1, program.first_trainable, -1):
        lams[i] = sim._apply(lams[i + 1], program.ops[i], inverses, angles, inverse=True)
    values = np.zeros(len(program.slots))
    psis = np.concatenate([states[i + 1] for i in program.reads])
    lams = np.concatenate([lams[i + 1] for i in program.reads]).conj()
    for group in program.groups:
        values[group.params] = sim._read(group, psis[group.rows], lams[group.rows])
    n = circuit.n_parameters
    return psi, np.bincount(program.slots, weights=values, minlength=n + 1)[:n]


def _data_after_the_first_trainable_op():
    """Data gates after the first trainable op: a rotation layer of data
    gates alone (a CNOT run folded into it), and an RZZ layer that mixes a
    data gate with trainable ones."""
    return CircuitSpec(3, (
        Gate("RY", (0,), param_slot=0), Gate("CNOT", (0, 1)),
        Gate("RX", (0,), data_slot=1), Gate("RX", (1,), data_slot=2),
        Gate("RZZ", (0, 2), param_slot=1), Gate("RZZ", (0, 1), data_slot=0),
        Gate("RZZ", (1, 2), param_slot=2), Gate("RY", (2,), param_slot=3), Gate("H", (1,)),
    ), 4, n_data_slots=3)


def _check_bound_equals_unbound(circuit, data_angles, rng):
    """Planned runs and adjoint gradients against the same run through
    _apply from |0...0>, bitwise (==)."""
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    p = rng.random(2**circuit.n_qubits)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    gram = _gram(circuit.register_bits, KernelConfig())
    observable_of = lambda psi: _loss_derivative(np.abs(psi) ** 2, target, gram)
    psi, grad = sim.adjoint_gradient(circuit, theta, observable_of, data_angles)
    ref_psi, ref_grad = _unbound_gradient(circuit, theta, observable_of, data_angles)
    assert (psi == ref_psi).all() and (grad == ref_grad).all()
    assert (run_circuit(circuit, theta, data_angles) == ref_psi).all()


_BOUND_CIRCUITS = [build_multivariate(3, 3, 4, choice) for choice in all_block_choices()]
_BOUND_CIRCUITS += [build_1d_rzz_ansatz(4), build_1d_rzz_ansatz(3), _data_after_the_first_trainable_op()]


@pytest.mark.parametrize("circuit", _BOUND_CIRCUITS, ids=[c.label for c in all_block_choices()] + ["1d-4", "1d-3", "data-late"])
def test_bound_runs_equal_unbound_runs_bitwise(circuit):
    rng = np.random.default_rng(21)
    data_angles = rng.uniform(0, np.pi / 2, circuit.n_data_slots) if circuit.n_data_slots else None
    for _ in range(3):
        _check_bound_equals_unbound(circuit, data_angles, rng)
    if data_angles is None:
        model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
        target = DiscreteDistribution(np.full(2**circuit.n_qubits, 2.0**-circuit.n_qubits), circuit.register_bits)
        np.testing.assert_allclose(
            mmd_gradient(model, target, KernelConfig()),
            mmd_gradient_shift(model, target, KernelConfig()),
            rtol=0,
            atol=1e-12,
        )


def test_conditional_bound_runs_equal_unbound_runs_at_every_condition():
    circuit = build_conditional(3, 4)
    rng = np.random.default_rng(22)
    model = BornModel(circuit, np.zeros(circuit.n_parameters), (min(CONDITION_VALUES), max(CONDITION_VALUES)))
    p = rng.random(8)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    for condition in CONDITION_VALUES:
        _check_bound_equals_unbound(circuit, model.data_angles(condition), rng)
        trained = model.with_theta(rng.uniform(0, 2 * np.pi, circuit.n_parameters))
        np.testing.assert_allclose(
            mmd_gradient(trained, target, KernelConfig(), condition),
            mmd_gradient_shift(trained, target, KernelConfig(), condition),
            rtol=0,
            atol=1e-12,
        )


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 9), real=st.booleans())
def test_bound_layered_programs_equal_unbound_runs_bitwise(seed, n_qubits, real):
    rng = np.random.default_rng(seed)
    circuit = _layered_circuit(rng, n_qubits, real)
    data_angles = rng.uniform(0, np.pi, circuit.n_data_slots) if circuit.n_data_slots else None
    if circuit.n_parameters:
        _check_bound_equals_unbound(circuit, data_angles, rng)


def test_the_start_state_is_read_only_on_the_shared_program():
    circuit = build_conditional(2, 1)
    program = circuit.program
    assert build_conditional(2, 1).program is program  # a circuit built anew shares it
    assert not program.start.flags.writeable
    # the ops before the first parameterized one, an H block and a CNOT run
    # of a two-block circuit, run once into the start state; the data block
    # after them is swept, and the backward run stops at the trainable one
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RY", (1,), data_slot=0),
             Gate("CNOT", (1, 2)), Gate("RY", (2,), param_slot=0))
    prefixed = CircuitSpec(5, gates, 1, n_data_slots=1)
    assert (prefixed.program.first_swept, prefixed.program.first_trainable) == (2, 4)
    bell = np.zeros(32)
    bell[[0, 3]] = 2**-0.5
    np.testing.assert_allclose(prefixed.program.start[0], bell, rtol=0, atol=1e-15)
    assert not prefixed.program.start.flags.writeable
    _check_bound_equals_unbound(prefixed, np.array([0.7]), np.random.default_rng(41))
    # a run hands the caller an array of its own, even with no op to run
    block = build_correlation_block(2, 1, CorrelationBlockChoice())
    amps = run_circuit(block, [])
    amps[0] = 2.0
    assert run_circuit(block, [])[0] != 2.0


def test_every_condition_sweeps_the_programs_one_block_table(monkeypatch):
    # the sweep's bases and gather index are the program's, the same at
    # every condition, and the data block is one of its blocks
    circuit = build_conditional(3, 4)
    program = circuit.program
    rng = np.random.default_rng(39)
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters),
                      (min(CONDITION_VALUES), max(CONDITION_VALUES)))
    target, _ = _observable(circuit, 40)
    swept, rotation_blocks = [], sim._rotation_blocks

    def spied(angles, bases, generators, index):
        swept.append((bases, index))
        return rotation_blocks(angles, bases, generators, index)

    monkeypatch.setattr(sim, "_rotation_blocks", spied)
    for condition in CONDITION_VALUES:
        mmd_gradient(model, target, KernelConfig(), condition)
    assert len(swept) == len(CONDITION_VALUES)
    assert all(bases is program.bases and index is program.index for bases, index in swept)
    assert program.first_swept == 0 and len(program.index) == 10  # the data block and 9 trainable ones


def _plan_spy(monkeypatch):
    """The plans that sim builds from here on, with the program of each."""
    built, build = [], sim._build_plan

    def spied(program):
        plan = build(program)
        built.append((program, plan))
        return plan

    monkeypatch.setattr(sim, "_build_plan", spied)
    return built


def _observable(circuit, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(2**circuit.n_qubits)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    gram = _gram(circuit.register_bits, KernelConfig())
    return target, lambda psi: _loss_derivative(np.abs(psi) ** 2, target, gram)


_PLANNED_CONDITION = 0.5
_PLANNED_RANGE = {"multivariate": None, "conditional": (0.0, 1.0), "1d-3": None}
_PLANNED = {
    "multivariate": (build_multivariate(3, 3, 4, CorrelationBlockChoice()), None),
    # the data angles of condition 0.5 in the range (0, 1)
    "conditional": (build_conditional(3, 4), np.full(3, encode_condition(_PLANNED_CONDITION, 0.0, 1.0))),
    "1d-3": (build_1d_rzz_ansatz(3), None),
}


@pytest.mark.parametrize("name", _PLANNED)
def test_planned_runs_hand_out_arrays_of_their_own(name):
    circuit, data_angles = _PLANNED[name]
    rng = np.random.default_rng(31)
    _, observable_of = _observable(circuit, 32)
    seen = []
    keep = lambda psi: seen.append(psi) or observable_of(psi)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    ref_psi, ref_grad = _unbound_gradient(circuit, theta, observable_of, data_angles)
    psi, grad = sim.adjoint_gradient(circuit, theta, keep, data_angles)
    assert seen[0] is psi  # observable_of sees the psi that is returned
    kept_psi, kept_grad = psi.copy(), grad.copy()
    psi[:] = 7.0  # the caller's to change
    grad[:] = 7.0
    other = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    sim.adjoint_gradient(circuit, other, keep, data_angles)  # overwrites the plan's rows
    again_psi, again_grad = sim.adjoint_gradient(circuit, theta, observable_of, data_angles)
    assert (again_psi == ref_psi).all() and (again_grad == ref_grad).all()
    assert (kept_psi == ref_psi).all() and (kept_grad == ref_grad).all()
    assert (seen[1] != 7.0).all() and (psi == 7.0).all()
    amps = run_circuit(circuit, theta, data_angles)
    run_circuit(circuit, other, data_angles)
    assert (amps == ref_psi).all()


@pytest.mark.parametrize("name", _PLANNED)
def test_a_reentrant_gradient_runs_on_a_throwaway_plan(name, monkeypatch):
    # observable_of runs mmd_gradient (and run_circuit) on the same circuit
    # at the same condition while the outer gradient holds the program's
    # plan: each inner run builds a plan of its own, and no run disturbs
    # another's rows
    circuit, data_angles = _PLANNED[name]
    rng = np.random.default_rng(33)
    target, observable_of = _observable(circuit, 34)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    inner_model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters), _PLANNED_RANGE[name])
    condition = None if data_angles is None else _PLANNED_CONDITION
    inner = []

    def reentrant(psi):
        inner.append(mmd_gradient(inner_model, target, KernelConfig(), condition))
        inner.append(run_circuit(circuit, inner_model.theta, data_angles))
        return observable_of(psi)

    program = circuit.program
    sim.adjoint_gradient(circuit, theta, observable_of, data_angles)  # the program's plan
    built = _plan_spy(monkeypatch)
    psi, grad = sim.adjoint_gradient(circuit, theta, reentrant, data_angles)
    ref_psi, ref_grad = _unbound_gradient(circuit, theta, observable_of, data_angles)
    inner_psi, inner_grad = _unbound_gradient(circuit, inner_model.theta, observable_of, data_angles)
    assert (psi == ref_psi).all() and (grad == ref_grad).all()
    assert (inner[0] == inner_grad).all() and (inner[1] == inner_psi).all()
    # one throwaway plan per inner run, none kept on the program
    assert len(built) == 2 and all(p is program and plan is not program.plan for p, plan in built)
    assert program.plan.lock.acquire(blocking=False)  # released again
    program.plan.lock.release()


def _check_two_threads_equal_serial(data_angles_of_thread):
    """Gradients of the conditional model on two threads, thread i at
    data_angles_of_thread[i], against the same gradients run serially. The
    threads share the program's one plan, whichever data angles each runs
    at: one holds it while the other builds throwaway plans."""
    circuit, _ = _PLANNED["conditional"]
    _, observable_of = _observable(circuit, 35)
    thetas = np.random.default_rng(36).uniform(0, 2 * np.pi, (2, 40, circuit.n_parameters))
    gradients = lambda i: [sim.adjoint_gradient(circuit, t, observable_of, data_angles_of_thread[i])[1]
                           for t in thetas[i]]
    serial = [gradients(i) for i in range(2)]
    results = [None, None]

    def work(i):
        results[i] = gradients(i)

    workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that they contend for the plan
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, serial):
        assert all((g == w).all() for g, w in zip(got, want))


def test_gradients_on_two_threads_equal_serial_ones():
    data_angles = _PLANNED["conditional"][1]
    _check_two_threads_equal_serial([data_angles, data_angles])


def test_gradients_at_two_conditions_on_two_threads_equal_serial_ones():
    _check_two_threads_equal_serial([_PLANNED["conditional"][1], np.full(3, encode_condition(0.9, 0.0, 1.0))])


def test_gradients_on_four_threads_while_one_holds_the_plan(monkeypatch):
    # thread 0's observable_of waits, holding the program's plan, until the
    # three other threads are done: each of them builds a throwaway plan,
    # and every thread gets the psi and gradient of a plain call
    circuit, data_angles = _PLANNED["conditional"]
    _, observable_of = _observable(circuit, 37)
    thetas = np.random.default_rng(38).uniform(0, 2 * np.pi, (4, circuit.n_parameters))
    plain = [sim.adjoint_gradient(circuit, t, observable_of, data_angles) for t in thetas]
    program = circuit.program
    plan = program.plan
    holding, others_done = threading.Event(), threading.Event()

    def hold(psi):
        holding.set()
        assert others_done.wait(timeout=60)
        return observable_of(psi)

    results = [None] * 4

    def work(i):
        results[i] = sim.adjoint_gradient(circuit, thetas[i], hold if i == 0 else observable_of, data_angles)

    built = _plan_spy(monkeypatch)
    workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    workers[0].start()
    assert holding.wait(timeout=60)
    for w in workers[1:]:
        w.start()
    for w in workers[1:]:
        w.join(timeout=60)
    others_done.set()
    workers[0].join(timeout=60)
    for (psi, grad), (want_psi, want_grad) in zip(results, plain):
        assert (psi == want_psi).all() and (grad == want_grad).all()
    assert len(built) == 3 and all(p is program and b is not plan for p, b in built)
    assert program.plan is plan
    assert plan.lock.acquire(blocking=False)  # released again
    plan.lock.release()


def test_one_plan_per_program_over_an_experiment(monkeypatch, tmp_path):
    gradients = []
    adjoint = metrics.adjoint_gradient

    def counted(circuit, theta, observable_of, data_angles=None):
        gradients.append(None if data_angles is None else data_angles.tobytes())
        return adjoint(circuit, theta, observable_of, data_angles)

    monkeypatch.setattr(metrics, "adjoint_gradient", counted)
    sim._compile.cache_clear()  # programs compiled anew, with no plan yet
    built = _plan_spy(monkeypatch)
    config = experiments.ExperimentConfig({"experiment": "exp-1d", "seed": 1, "train": {"max_epochs": 70}})
    experiments.run_experiment(config, tmp_path / "1d")
    assert len(gradients) == 700 and len(built) == 1
    del gradients[:], built[:]
    config = experiments.ExperimentConfig({"experiment": "exp-cond", "seed": 1})
    experiments.run_experiment(config, tmp_path / "cond")
    # the six training conditions take every gradient and the held-out one
    # is only run, all through the program's one plan
    assert len(set(gradients)) == len(CONDITION_VALUES) - 1 and len(gradients) > 100
    assert len(built) == 1 and built[0][0].plan is built[0][1]


def test_a_plans_scratch_is_its_rows_and_blocks():
    # (2 reads + 2) states: psi and lambda at each read op, two temporary
    # rows; the swept blocks, twice (their conjugates) in a complex program;
    # a phase vector and its conjugate per RZZ layer, and one float row of
    # theta.Z
    expected = {
        # 15 reads of 512 float64 amplitudes, 15 real 8 x 8 blocks
        "multivariate": (32 * 512 * 8, 15 * 64 * 8, 0),
        # 9 reads of 8 complex128 amplitudes, 10 complex 8 x 8 blocks (the data block is swept)
        "conditional": (20 * 8 * 16, 2 * 10 * 64 * 16, 0),
        # 4 reads of 8 complex128 amplitudes, 3 complex 8 x 8 blocks, one RZZ layer
        "1d-3": (10 * 8 * 16, 2 * 3 * 64 * 16, 2 * 8 * 16 + 8 * 8),
    }
    for name, (rows, blocks, phases) in expected.items():
        circuit, _ = _PLANNED[name]
        plan = sim._build_plan(circuit.program)
        assert (plan.states.nbytes, plan.blocks.nbytes, plan.phases.nbytes + plan.z.nbytes) == (rows, blocks, phases)
        arrays = [value for value in (getattr(plan, f.name) for f in fields(plan)) if isinstance(value, np.ndarray)]
        owned = [a for a in arrays if a.base is None]  # the rest are views of these
        assert sum(a.nbytes for a in owned) == rows + blocks + phases
    assert expected["multivariate"][0] + expected["multivariate"][1] == 138_752


def test_a_warm_gradient_allocates_no_state_rows(monkeypatch):
    # Regression guard: after a warm-up call, the gradient's forward and
    # backward runs write only into the plan (no _apply, no call built), so
    # what a call allocates is its sweep, its observable and its reads,
    # each a few states at most. Its peak must stay below half the plan's
    # rows, (reads + 1) states; a gradient that allocates its psi and
    # lambda rows per call, 2 reads states, exceeds it.
    circuit = build_multivariate(3, 3, 4, CorrelationBlockChoice())
    target, _ = _observable(circuit, 37)
    model = BornModel(circuit, np.random.default_rng(38).uniform(0, 2 * np.pi, circuit.n_parameters))
    mmd_gradient(model, target, KernelConfig())  # builds the plan and the Gram
    plan = circuit.program.plan
    reads, states = len(circuit.program.reads), plan.states.shape[1] * plan.states.itemsize
    bound = (reads + 1) * states
    assert plan.states.nbytes == 2 * bound and bound == 65_536
    per_op = []
    monkeypatch.setattr(sim, "_apply", lambda *a, **k: per_op.append(a))
    monkeypatch.setattr(sim, "_call", lambda *a, **k: per_op.append(a))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mmd_gradient(model, target, KernelConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert per_op == []
    assert peak < bound, f"one gradient allocated {peak} B at its peak, bound {bound} B"
