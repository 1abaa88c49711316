"""Born model: distributions, batched probabilities, checkpoints."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.born import (
    BornModel,
    load_checkpoint,
    model_distribution,
    model_probs_batch,
    save_checkpoint,
)
from borngen.circuits import (
    CorrelationBlockChoice,
    build_conditional,
    build_correlation_block,
    build_hardware_efficient,
    build_multivariate,
    circuit_to_dict,
)
from borngen.distributions import sample
from borngen.metrics import total_variance


def test_theta_length_validation():
    circuit = build_hardware_efficient(2, 1)
    with pytest.raises(ValueError):
        BornModel(circuit, np.zeros(circuit.n_parameters + 1))


def test_condition_range_requires_data_slots():
    circuit = build_hardware_efficient(2, 1)
    with pytest.raises(ValueError):
        BornModel(circuit, np.zeros(circuit.n_parameters), condition_range=(50, 200))


def test_zero_theta_point_mass():
    circuit = build_hardware_efficient(3, 2)
    dist = model_distribution(BornModel(circuit, np.zeros(circuit.n_parameters)))
    assert dist.probs[0] == pytest.approx(1.0)


def test_bell_block_model():
    circuit = build_correlation_block(2, 1, CorrelationBlockChoice(style="bell"))
    dist = model_distribution(BornModel(circuit, np.zeros(0)))
    assert dist.probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-10)
    assert dist.register_bits == (1, 1)


def test_conditional_at_lower_bound_matches_plain_ansatz():
    rng = np.random.default_rng(0)
    cond_circuit = build_conditional(3, 2)
    plain_circuit = build_hardware_efficient(3, 2)
    theta = rng.uniform(0, 2 * np.pi, cond_circuit.n_parameters)
    cond = BornModel(cond_circuit, theta, condition_range=(50.0, 200.0))
    plain = BornModel(plain_circuit, theta)
    np.testing.assert_allclose(
        model_distribution(cond, 50.0).probs,
        model_distribution(plain).probs,
        atol=1e-12,
    )


def test_condition_contract():
    circuit = build_conditional(2, 1)
    model = BornModel(circuit, np.zeros(circuit.n_parameters), condition_range=(50.0, 200.0))
    with pytest.raises(ValueError):
        model_distribution(model)  # conditional model needs a condition
    plain = BornModel(build_hardware_efficient(2, 1), np.zeros(6))
    with pytest.raises(ValueError):
        model_distribution(plain, 100.0)  # unconditioned model takes none


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_distributions_normalized(seed):
    rng = np.random.default_rng(seed)
    circuit = build_multivariate(2, 2, 1, CorrelationBlockChoice())
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    dist = model_distribution(model)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(dist.probs >= 0)


def test_batch_probs_match_single():
    rng = np.random.default_rng(1)
    circuit = build_hardware_efficient(3, 2)
    model = BornModel(circuit, np.zeros(circuit.n_parameters))
    thetas = rng.uniform(0, 2 * np.pi, (5, circuit.n_parameters))
    batch = model_probs_batch(model, thetas)
    for i in range(5):
        single = model_distribution(model.with_theta(thetas[i]))
        np.testing.assert_allclose(batch[i], single.probs, atol=1e-12)


def test_sampling_agrees_with_exact_distribution():
    rng = np.random.default_rng(7)
    circuit = build_hardware_efficient(4, 2)
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    dist = model_distribution(model)
    draws = sample(dist, 100_000, 0)
    freq = np.bincount(draws, minlength=len(dist.probs)) / len(draws)
    empirical = type(dist)(freq, dist.register_bits)
    assert total_variance(empirical, dist) <= 0.02


def test_condition_continuity():
    rng = np.random.default_rng(5)
    circuit = build_conditional(3, 2)
    model = BornModel(
        circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters), condition_range=(50.0, 200.0)
    )
    for e in range(50, 200):
        tv = total_variance(
            model_distribution(model, float(e)), model_distribution(model, float(e + 1))
        )
        assert tv <= 0.05


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    circuit = build_conditional(3, 2)
    model = BornModel(
        circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters), condition_range=(50.0, 200.0)
    )
    path = tmp_path / "model.json"
    save_checkpoint(model, path, {"note": "test"})
    restored = load_checkpoint(path)
    assert restored.circuit == model.circuit
    np.testing.assert_allclose(restored.theta, model.theta)
    assert restored.condition_range == (50.0, 200.0)
    assert json.loads(path.read_text())["schema"] == 1
    np.testing.assert_allclose(
        model_distribution(restored, 125.0).probs,
        model_distribution(model, 125.0).probs,
        atol=1e-12,
    )


def test_checkpoint_bytes_are_the_payload_dumped_once(tmp_path):
    circuit = build_conditional(3, 2)
    theta = np.linspace(-1.0, 2.5, circuit.n_parameters)
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, theta, condition_range=(50.0, 200.0)), path, {"note": "x"})
    payload = {
        "schema": 1,
        "circuit": circuit_to_dict(circuit),
        "theta": [float(t) for t in theta],
        "condition_range": [50.0, 200.0],
        "extra": {"note": "x"},
    }
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True)


def _saved_payload(tmp_path):
    circuit = build_hardware_efficient(2, 1)
    model = BornModel(circuit, np.linspace(0.1, 1.0, circuit.n_parameters))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    return model, path, json.loads(path.read_text())


def test_checkpoint_without_schema_reads_as_version_1(tmp_path):
    model, path, payload = _saved_payload(tmp_path)
    del payload["schema"]
    path.write_text(json.dumps(payload))
    restored = load_checkpoint(path)
    assert restored.circuit == model.circuit
    np.testing.assert_array_equal(restored.theta, model.theta)


@pytest.mark.parametrize("schema", [0, 2, "1"])
def test_checkpoint_unknown_schema_rejected(tmp_path, schema):
    _, path, payload = _saved_payload(tmp_path)
    payload["schema"] = schema
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"schema version {schema!r} is not supported"):
        load_checkpoint(path)


@pytest.mark.parametrize("condition_range", [[50, 125, 200], [200, 50], [50, float("nan")]])
def test_checkpoint_with_a_malformed_condition_range_fails_at_load(tmp_path, condition_range):
    circuit = build_conditional(3, 2)
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, np.zeros(circuit.n_parameters), (50.0, 200.0)), path)
    payload = json.loads(path.read_text())
    payload["condition_range"] = condition_range
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="condition_range must be a pair"):
        load_checkpoint(path)


def test_checkpoint_with_a_non_finite_theta_fails_at_load(tmp_path):
    # a NaN parameter would give all-NaN probabilities at first use
    circuit = build_conditional(3, 2)
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, np.zeros(circuit.n_parameters), (50.0, 200.0)), path)
    payload = json.loads(path.read_text())
    payload["theta"][0] = float("nan")
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"theta\[0\] is nan"):
        load_checkpoint(path)


@pytest.mark.parametrize("theta", [[[0.0]] * 9, 0.5, [0.0] * 8], ids=["column", "scalar", "short"])
def test_a_theta_that_is_no_vector_fails_at_construction_and_at_load(tmp_path, theta):
    # the column and the scalar once failed only at first use, the scalar
    # with a TypeError from len()
    circuit = build_conditional(3, 1)
    message = r"theta must be a vector of 9 parameters, not an array of shape \("
    with pytest.raises(ValueError, match=message):
        BornModel(circuit, np.array(theta), (50.0, 200.0))
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, np.zeros(circuit.n_parameters), (50.0, 200.0)), path)
    payload = json.loads(path.read_text())
    payload["theta"] = theta
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_theta_must_be_finite(bad):
    circuit = build_hardware_efficient(3, 1)
    theta = np.zeros(circuit.n_parameters)
    theta[[4, 6]] = bad
    with pytest.raises(ValueError, match=r"theta\[4\] is .*must be finite"):
        BornModel(circuit, theta)


def test_checkpoint_of_a_conditional_circuit_without_a_condition_range_fails_at_load(tmp_path):
    circuit = build_conditional(3, 2)
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, np.zeros(circuit.n_parameters), (50.0, 200.0)), path)
    payload = json.loads(path.read_text())
    payload["condition_range"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"condition_range is None.*3 data slots need the range"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "layout",
    [
        [["qA", [2, 4]], ["qB", [0, 2]]],
        [["qA", [0, 3]], ["qB", [1, 4]]],
        [["qA", [0, 2]]],
        [["qA", [0, 2.5]], ["qB", [2, 4]]],
    ],
    ids=["swapped", "overlapping", "gapped", "fractional"],
)
def test_checkpoint_whose_registers_do_not_tile_the_qubits_fails_at_load(tmp_path, layout):
    # register_bits keeps only the widths, so any other layout misreads the bins
    circuit = build_multivariate(2, 2, 1, CorrelationBlockChoice())
    path = tmp_path / "model.json"
    save_checkpoint(BornModel(circuit, np.zeros(circuit.n_parameters)), path)
    payload = json.loads(path.read_text())
    payload["circuit"]["register_layout"] = layout
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="register .* spans|registers end at qubit"):
        load_checkpoint(path)


@pytest.mark.parametrize("condition_range", [(50.0,), (50.0, 50.0), (True, 200.0), ("50", 200.0),
                                             (50.0, float("inf"))])
def test_condition_range_must_be_an_increasing_pair_of_finite_numbers(condition_range):
    circuit = build_conditional(3, 2)
    with pytest.raises(ValueError, match="condition_range must be a pair"):
        BornModel(circuit, np.zeros(circuit.n_parameters), condition_range)
