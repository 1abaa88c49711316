"""Readout noise channel and mitigation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.distributions import DiscreteDistribution
from borngen.metrics import total_variance
from borngen.noise import (
    ConfusionMatrix,
    NoiseConfig,
    apply_readout_noise,
    estimate_confusion_matrix,
    mitigate_readout,
    readout_matrix,
)


def _dist(probs, bits):
    return DiscreteDistribution(np.asarray(probs, dtype=float), bits)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(readout_flip_prob=0.5)
    with pytest.raises(ValueError):
        NoiseConfig(readout_flip_prob=-0.1)
    # NaN fails every comparison, so the check is written to reject it
    for bad in (float("nan"), (0.1, float("nan")), float("inf")):
        with pytest.raises(ValueError):
            NoiseConfig(readout_flip_prob=bad)


def test_flip_probs_broadcast_and_per_qubit():
    config = NoiseConfig(readout_flip_prob=0.03)
    np.testing.assert_allclose(config.flip_probs(3), [0.03, 0.03, 0.03])
    config = NoiseConfig(readout_flip_prob=(0.01, 0.02))
    np.testing.assert_allclose(config.flip_probs(2), [0.01, 0.02])
    with pytest.raises(ValueError):
        config.flip_probs(3)


def test_readout_matrix_two_qubit_oracle():
    # independent flips at 0.1: P(observe 00 | true 00) = 0.9^2 = 0.81,
    # single flips 0.09 each, double flip 0.01
    m = readout_matrix(2, NoiseConfig(readout_flip_prob=0.1)).matrix
    np.testing.assert_allclose(m[:, 0], [0.81, 0.09, 0.09, 0.01], atol=1e-12)
    np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)


def test_readout_matrix_asymmetric_qubit_order():
    # qubit 0 is the least-significant bit: its flip probability controls
    # the (observed 1 | true 0) entry
    m = readout_matrix(2, NoiseConfig(readout_flip_prob=(0.1, 0.0))).matrix
    assert m[1, 0] == pytest.approx(0.1)  # flip of qubit 0
    assert m[2, 0] == pytest.approx(0.0)  # qubit 1 never flips


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[0.9, 0.3], [0.2, 0.7]]))  # columns != 1
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1.2, 0.0], [-0.2, 1.0]]))


def test_apply_readout_noise_conserves_mass():
    p = _dist([0.7, 0.1, 0.1, 0.1], (2,))
    noisy = apply_readout_noise(p, NoiseConfig(readout_flip_prob=0.029))
    assert noisy.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert not np.allclose(noisy.probs, p.probs)


def test_mitigation_round_trip_exact_matrix():
    rng = np.random.default_rng(0)
    probs = rng.random(16)
    p = _dist(probs / probs.sum(), (4,))
    config = NoiseConfig(readout_flip_prob=0.029)
    noisy = apply_readout_noise(p, config)
    mitigated = mitigate_readout(noisy, readout_matrix(4, config))
    assert total_variance(mitigated, p) <= 1e-9


def test_mitigation_clips_and_renormalizes():
    # mitigating a distribution that is not in the channel's image can
    # produce negative entries, which must be clipped away
    config = NoiseConfig(readout_flip_prob=0.2)
    point = _dist([1.0, 0.0], (1,))
    mitigated = mitigate_readout(point, readout_matrix(1, config))
    assert np.all(mitigated.probs >= 0)
    assert mitigated.probs.sum() == pytest.approx(1.0)


def test_estimated_confusion_matrix_converges():
    config = NoiseConfig(readout_flip_prob=0.029, seed=0)
    exact = readout_matrix(3, config).matrix
    estimated = estimate_confusion_matrix(3, config, 200_000).matrix
    assert np.abs(estimated - exact).max() <= 0.005
    np.testing.assert_allclose(estimated.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "n_qubits, flip_prob, shots", [(1, 0.029, 7), (3, (0.01, 0.2, 0.4), 100), (5, 0.1, 1000)]
)
def test_calibration_counts_equal_one_draw_per_prepared_state(n_qubits, flip_prob, shots):
    # the counts of each basis state in turn, from one stream
    config = NoiseConfig(flip_prob, seed=3)
    exact = readout_matrix(n_qubits, config).matrix
    rng = np.random.default_rng(config.seed)
    columns = [rng.multinomial(shots, exact[:, state]) / shots for state in range(2**n_qubits)]
    estimated = estimate_confusion_matrix(n_qubits, config, shots).matrix
    np.testing.assert_array_equal(estimated, np.column_stack(columns))


def test_estimated_confusion_matrix_shot_check():
    with pytest.raises(ValueError):
        estimate_confusion_matrix(2, NoiseConfig(), 0)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.0, 0.4))
def test_readout_channel_preserves_simplex(seed, eps):
    rng = np.random.default_rng(seed)
    probs = rng.random(8)
    p = _dist(probs / probs.sum(), (3,))
    noisy = apply_readout_noise(p, NoiseConfig(readout_flip_prob=eps))
    assert noisy.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(noisy.probs >= -1e-12)


@settings(deadline=None, max_examples=30)
@given(
    n_qubits=st.integers(1, 4),
    rates=st.lists(st.floats(0.0, 0.1), min_size=4, max_size=4),
    seed=st.integers(0, 10_000),
    shots=st.integers(1_000, 20_000),
)
def test_mitigation_keeps_the_simplex(n_qubits, rates, seed, shots):
    # sparse random distributions push the solve to negative entries,
    # which mitigation must clip and renormalise
    rng = np.random.default_rng(seed)
    p = _dist(rng.dirichlet(np.full(2**n_qubits, 0.3)), (n_qubits,))
    config = NoiseConfig(readout_flip_prob=tuple(rates[:n_qubits]), seed=seed)
    confusion = estimate_confusion_matrix(n_qubits, config, shots)
    mitigated = mitigate_readout(apply_readout_noise(p, config), confusion)
    assert np.all(mitigated.probs >= 0)
    assert abs(mitigated.probs.sum() - 1.0) <= 1e-12
