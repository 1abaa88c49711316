"""Statevector simulator: gate semantics, conventions and invariants."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.sim import (
    Gate,
    StateVector,
    apply_gate,
    probabilities,
    run_circuit,
    run_circuit_batch,
)
from borngen.circuits import CircuitSpec, build_conditional


def test_zero_state():
    state = StateVector.zero_state(3)
    assert state.amplitudes.shape == (8,)
    assert state.amplitudes[0] == 1.0
    assert state.norm_squared() == pytest.approx(1.0)


def test_zero_state_rejects_no_qubits():
    with pytest.raises(ValueError):
        StateVector.zero_state(0)


def test_ry_rotation_probabilities():
    # RY(pi/3)|0> = cos(pi/6)|0> + sin(pi/6)|1> -> p = (3/4, 1/4)
    state = apply_gate(StateVector.zero_state(1), Gate("RY", (0,), param_slot=0), np.pi / 3)
    p = np.abs(state.amplitudes) ** 2
    assert p == pytest.approx([0.75, 0.25], abs=1e-12)


def test_rx_amplitude_is_imaginary():
    state = apply_gate(StateVector.zero_state(1), Gate("RX", (0,), param_slot=0), np.pi / 2)
    assert state.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert state.amplitudes[1] == pytest.approx(-1j / np.sqrt(2))


def test_hadamard_twice_is_identity():
    g = Gate("H", (0,))
    state = apply_gate(apply_gate(StateVector.zero_state(1), g), g)
    assert state.amplitudes == pytest.approx([1.0, 0.0], abs=1e-12)


def test_cnot_least_significant_bit_convention():
    # qubit 0 is the least-significant bit: |01> is basis index 1 and has
    # qubit 0 set, so CNOT(control=0, target=1) maps it to index 3
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    state = apply_gate(StateVector(2, amps), Gate("CNOT", (0, 1)))
    assert state.amplitudes[3] == pytest.approx(1.0)


def test_cnot_control_unset_is_identity():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0  # qubit 1 set, qubit 0 (the control) unset
    state = apply_gate(StateVector(2, amps), Gate("CNOT", (0, 1)))
    assert state.amplitudes[2] == pytest.approx(1.0)


def test_rzz_phases_on_agreeing_bits():
    # exp(-i theta Z@Z) multiplies |00> (bits agree) by exp(-i theta)
    theta = 0.7
    state = apply_gate(StateVector.zero_state(2), Gate("RZZ", (0, 1), param_slot=0), theta)
    assert state.amplitudes[0] == pytest.approx(np.exp(-1j * theta))


def test_rzz_phases_on_disagreeing_bits():
    theta = 0.7
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    state = apply_gate(StateVector(2, amps), Gate("RZZ", (0, 1), param_slot=0), theta)
    assert state.amplitudes[1] == pytest.approx(np.exp(1j * theta))


def test_bell_state():
    circuit = CircuitSpec(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
    state = run_circuit(circuit, [])
    p = np.abs(state.amplitudes) ** 2
    assert p == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-10)


def test_ghz_state():
    gates = (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)))
    state = run_circuit(CircuitSpec(3, gates, 0), [])
    p = np.abs(state.amplitudes) ** 2
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


def test_apply_gate_angle_contract():
    state = StateVector.zero_state(1)
    with pytest.raises(ValueError):
        apply_gate(state, Gate("RY", (0,), param_slot=0))  # missing angle
    with pytest.raises(ValueError):
        apply_gate(state, Gate("H", (0,)), 0.3)  # spurious angle
    with pytest.raises(ValueError):
        apply_gate(state, Gate("RY", (1,), param_slot=0), 0.3)  # bad target


def test_run_circuit_parameter_count_check():
    circuit = CircuitSpec(1, (Gate("RY", (0,), param_slot=0),), 1)
    with pytest.raises(ValueError):
        run_circuit(circuit, [0.1, 0.2])


@pytest.mark.parametrize("data_angles", [None, np.zeros(2)])
def test_batch_validates_data_angles(data_angles):
    circuit = build_conditional(3, 1)  # three data slots
    thetas = np.zeros((2, circuit.n_parameters))
    with pytest.raises(ValueError, match="expected 3 data angles"):
        run_circuit_batch(circuit, thetas, data_angles)
    with pytest.raises(ValueError, match="expected 3 data angles"):
        run_circuit(circuit, thetas[0], data_angles)


def test_circuit_compiles_once():
    circuit = build_conditional(3, 1)
    assert circuit.program is circuit.program
    assert len(circuit.program) == len(circuit.gates)


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
    state = run_circuit(circuit, theta)
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_batch_matches_single_runs(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, 3, 10)
    thetas = rng.uniform(0, 2 * np.pi, (4, circuit.n_parameters))
    batch = run_circuit_batch(circuit, thetas)
    for i in range(4):
        single = run_circuit(circuit, thetas[i])
        np.testing.assert_allclose(batch[i], single.amplitudes, atol=1e-12)


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


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 4))
def test_kernel_matches_dense_matrices(seed, n_qubits):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, n_qubits, 12)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    expected = np.zeros(2**n_qubits, dtype=complex)
    expected[0] = 1.0
    for gate in circuit.gates:
        angle = theta[gate.param_slot] if gate.param_slot is not None else 0.0
        expected = _dense_matrix(gate, angle, n_qubits) @ expected
    np.testing.assert_allclose(run_circuit(circuit, theta).amplitudes, expected, atol=1e-12)


def test_probabilities_distribution():
    circuit = CircuitSpec(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))), 0)
    dist = probabilities(run_circuit(circuit, []), (1, 1))
    assert dist.register_bits == (1, 1)
    assert dist.probs.sum() == pytest.approx(1.0)
