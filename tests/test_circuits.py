"""Circuit builders: parameter counts, block variants, condition encoding."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.circuits import (
    CircuitSpec,
    CorrelationBlockChoice,
    all_block_choices,
    build_1d_rzz_ansatz,
    build_conditional,
    build_correlation_block,
    build_hardware_efficient,
    build_multivariate,
    circuit_from_dict,
    circuit_to_dict,
    encode_condition,
)
from borngen.sim import PARAMETERIZED_KINDS, Gate, run_circuit


def test_1d_ansatz_parameter_count():
    # 2N + N(N-1)/2 + N at N=4 gives the published 18 parameters
    assert build_1d_rzz_ansatz(4).n_parameters == 18


def test_multivariate_parameter_count():
    circuit = build_multivariate(3, 3, 4, CorrelationBlockChoice())
    assert circuit.n_parameters == 45


def test_conditional_parameter_count():
    circuit = build_conditional(3, 4)
    assert circuit.n_parameters == 27
    assert circuit.n_data_slots == 3


@settings(deadline=None, max_examples=30)
@given(n=st.integers(2, 6))
def test_1d_ansatz_count_formula(n):
    assert build_1d_rzz_ansatz(n).n_parameters == 2 * n + n * (n - 1) // 2 + n


@settings(deadline=None, max_examples=30)
@given(d=st.integers(2, 4), n=st.integers(1, 3), reps=st.integers(0, 4))
def test_multivariate_count_formula(d, n, reps):
    circuit = build_multivariate(d, n, reps, CorrelationBlockChoice())
    assert circuit.n_parameters == reps * d * n + d * n


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 5), layers=st.integers(0, 4))
def test_hardware_efficient_count_formula(n, layers):
    assert build_hardware_efficient(n, layers).n_parameters == 2 * n * layers + n


def test_multivariate_zero_repetitions():
    assert build_multivariate(2, 1, 0, CorrelationBlockChoice()).n_parameters == 2


def test_conditional_small():
    circuit = build_conditional(1, 0)
    assert circuit.n_parameters == 1
    assert circuit.n_data_slots == 1


def test_eight_block_choices_all_parameter_free():
    choices = all_block_choices()
    assert len(choices) == 8
    assert len(set(c.label for c in choices)) == 8
    for choice in choices:
        block = build_correlation_block(3, 2, choice)
        assert block.n_parameters == 0


def test_block_choice_validation():
    with pytest.raises(ValueError):
        CorrelationBlockChoice(connectivity="ring")
    with pytest.raises(ValueError):
        CorrelationBlockChoice(depth_pairs="2")
    with pytest.raises(ValueError):
        CorrelationBlockChoice(style="cz")


def test_bell_block_two_registers():
    block = build_correlation_block(2, 1, CorrelationBlockChoice(style="bell"))
    p = np.abs(run_circuit(block, [])) ** 2
    assert p == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-10)


def test_bell_block_three_registers_ghz():
    block = build_correlation_block(3, 1, CorrelationBlockChoice(style="bell"))
    p = np.abs(run_circuit(block, [])) ** 2
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert p == pytest.approx(expected, abs=1e-10)


def test_register_layout():
    circuit = build_multivariate(3, 3, 4, CorrelationBlockChoice())
    assert circuit.register_bits == (3, 3, 3)
    ranges = [rng for _, rng in circuit.register_layout]
    assert ranges == [(0, 3), (3, 6), (6, 9)]


def test_encode_condition_bounds():
    assert encode_condition(50.0, 50.0, 200.0) == pytest.approx(0.0)
    assert encode_condition(200.0, 50.0, 200.0) == pytest.approx(np.pi / 2)
    assert encode_condition(125.0, 50.0, 200.0) == pytest.approx(np.arcsin(0.5))


def test_encode_condition_range_error():
    with pytest.raises(ValueError):
        encode_condition(40.0, 50.0, 200.0)
    with pytest.raises(ValueError):
        encode_condition(100.0, 200.0, 50.0)


def test_builder_input_validation():
    with pytest.raises(ValueError):
        build_1d_rzz_ansatz(1)
    with pytest.raises(ValueError):
        build_multivariate(1, 3, 4, CorrelationBlockChoice())
    with pytest.raises(ValueError):
        build_hardware_efficient(0, 1)
    with pytest.raises(ValueError):
        build_conditional(0, 1)


def test_circuit_spec_slot_coverage_validation():
    with pytest.raises(ValueError):
        CircuitSpec(1, (Gate("RY", (0,), param_slot=1),), 1)  # slot 0 missing
    with pytest.raises(ValueError):
        CircuitSpec(1, (Gate("RY", (0,), param_slot=0),), 2)
    # data slots are checked exactly alike, and no count is negative
    for gates, n_parameters, n_data_slots, complaint in [
        ((Gate("RY", (0,), data_slot=0), Gate("RY", (0,), data_slot=2)), 0, 3, "data slots"),  # slot 1 missing
        ((Gate("RY", (0,), param_slot=0),), 1, 2, "data slots"),  # data slots without a data gate
        ((Gate("RY", (0,), data_slot=1),), 0, 1, "data slots"),  # a slot past n_data_slots
        ((), -1, -2, "at least 0"),
        ((), 0, -1, "at least 0"),
    ]:
        with pytest.raises(ValueError, match=complaint):
            CircuitSpec(1, gates, n_parameters, n_data_slots=n_data_slots)


@pytest.mark.parametrize("dropped", [{1}, {0, 1, 2}], ids=["gap", "no-data-gate"])
def test_a_loaded_circuit_checks_its_data_slots(dropped):
    # a checkpoint whose data gates leave a slot of its n_data_slots unused
    payload = circuit_to_dict(build_conditional(3, 1))
    payload["gates"] = [g for g in payload["gates"] if g.get("data_slot") not in dropped]
    with pytest.raises(ValueError, match="data slots"):
        circuit_from_dict(payload)


@pytest.mark.parametrize(
    "kind, targets, slots",
    [
        ("RY", (1.7,), {"param_slot": 0}),
        ("RY", (-1,), {"param_slot": 0}),
        ("CNOT", (-1, 0), {}),
        ("RY", (True,), {"param_slot": 0}),
        ("RY", ("1",), {"param_slot": 0}),
        # a slot indexes theta or the data angles, as a target indexes qubits
        ("RY", (0,), {"param_slot": 0.0}),
        ("RY", (0,), {"param_slot": False}),
        ("RZZ", (0, 1), {"param_slot": -1}),
        ("RY", (0,), {"data_slot": 1.0}),
        ("RX", (0,), {"data_slot": True}),
        ("RY", (0,), {"param_slot": "0"}),
    ],
    ids=["fraction", "negative", "negative-control", "bool", "string", "fraction-param-slot",
         "bool-param-slot", "negative-param-slot", "fraction-data-slot", "bool-data-slot",
         "string-param-slot"],
)
def test_gate_rejects_a_target_that_is_no_qubit_index(kind, targets, slots):
    with pytest.raises(ValueError, match="integers >= 0"):
        Gate(kind, targets, **slots)


def test_gate_takes_numpy_integer_targets_as_ints():
    gate = Gate("CNOT", (np.int64(2), np.uint8(0)))
    assert gate.targets == (2, 0) and all(type(t) is int for t in gate.targets)
    ry, rx = Gate("RY", (0,), param_slot=np.int64(3)), Gate("RX", (0,), data_slot=np.uint8(1))
    assert (ry.param_slot, rx.data_slot) == (3, 1)
    assert type(ry.param_slot) is int and type(rx.data_slot) is int


@pytest.mark.parametrize(
    "field, value",
    [("targets", [-1]), ("targets", [0.5]), ("param_slot", 0.0), ("param_slot", False)],
    ids=["-1", "0.5", "fraction-param-slot", "bool-param-slot"],
)
def test_a_loaded_circuit_checks_its_gate_targets(field, value):
    payload = circuit_to_dict(build_1d_rzz_ansatz(3))
    payload["gates"][0][field] = value
    with pytest.raises(ValueError, match="integers >= 0"):
        circuit_from_dict(payload)


@pytest.mark.parametrize("n_qubits", [0, -1])
def test_circuit_spec_rejects_no_qubits(n_qubits):
    with pytest.raises(ValueError, match="at least one qubit"):
        CircuitSpec(n_qubits, (), 0)


@pytest.mark.parametrize(
    "n_qubits, n_parameters, n_data_slots, complaint",
    [
        (True, 0, 0, "at least one qubit"),
        (2.0, 0, 0, "at least one qubit"),
        (1, 0.0, 0, "at least 0"),
        (1, 0, False, "at least 0"),
    ],
)
def test_circuit_spec_counts_must_be_integers(n_qubits, n_parameters, n_data_slots, complaint):
    with pytest.raises(ValueError, match=complaint):
        CircuitSpec(n_qubits, (), n_parameters, n_data_slots)


@pytest.mark.parametrize(
    "layout",
    [
        (("qA", (2, 4)), ("qB", (0, 2))),
        (("qA", (0, 3)), ("qB", (1, 4))),
        (("qA", (0, 2)),),
        (("qA", (0, 0)), ("qB", (0, 4))),
        (("qA", (0, 2)), ("qB", (2, 5))),
        (("qA", (0, 2.0)), ("qB", (2, 4))),
        (("qA", (False, 2)), ("qB", (2, 4))),
    ],
    ids=["swapped", "overlapping", "gapped", "empty", "past-the-end", "fraction", "bool"],
)
def test_register_layout_must_tile_the_qubits_from_0_in_order(layout):
    # register_bits keeps only the widths: a swapped layout would read qA as qubits 0-1
    with pytest.raises(ValueError, match="register .* spans|registers end at qubit"):
        CircuitSpec(4, (), 0, register_layout=layout)


def test_every_builder_numbers_its_trainable_slots_in_gate_order():
    # theta is stored in this order in every checkpoint
    circuits = [build_hardware_efficient(n, layers) for n in (1, 3) for layers in (0, 2)]
    circuits += [build_conditional(n, layers) for n in (1, 3) for layers in (0, 2)]
    circuits += [build_1d_rzz_ansatz(n) for n in (2, 4)]
    for choice in all_block_choices():
        circuits += [build_correlation_block(3, 2, choice), build_multivariate(3, 2, 2, choice)]
    for circuit in circuits:
        slots = [g.param_slot for g in circuit.gates
                 if g.kind in PARAMETERIZED_KINDS and g.data_slot is None]
        assert slots == list(range(circuit.n_parameters))


def test_json_round_trip():
    for circuit in (
        build_1d_rzz_ansatz(4),
        build_multivariate(3, 2, 2, CorrelationBlockChoice(style="bell")),
        build_conditional(3, 4),
    ):
        restored = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert restored == circuit


def test_full_connectivity_pair_order():
    circuit = build_multivariate(3, 1, 1, CorrelationBlockChoice(connectivity="full"))
    cnots = [g.targets for g in circuit.gates if g.kind == "CNOT"]
    # nearest-neighbour register pairs first, the long-range pair last
    assert cnots[:3] == [(0, 1), (1, 2), (0, 2)]
