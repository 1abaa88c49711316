"""Born model: distributions, batched probabilities, checkpoints."""
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
    plain_circuit = build_hardware_efficient(3, 2, with_rx=True)
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
    np.testing.assert_allclose(
        model_distribution(restored, 125.0).probs,
        model_distribution(model, 125.0).probs,
        atol=1e-12,
    )
