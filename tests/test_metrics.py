"""MMD loss, adjoint and parameter-shift gradients, total variance, Pearson matrices."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.born import BornModel, model_distribution
from borngen.circuits import CircuitSpec, build_1d_rzz_ansatz, build_hardware_efficient
from borngen.distributions import DiscreteDistribution
from borngen.sim import Gate
from borngen.metrics import (
    GramCache,
    KernelConfig,
    kernel_value,
    mmd_gradient,
    mmd_gradient_shift,
    mmd_loss,
    mmd_loss_samples,
    pearson_correlation,
    total_variance,
)

BANDWIDTH_ONE = KernelConfig((1.0,))


def _dist(probs, bits=None):
    probs = np.asarray(probs, dtype=float)
    if bits is None:
        bits = (int(np.log2(len(probs))),)
    return DiscreteDistribution(probs, bits)


def _random_dist(rng, n_bins=8):
    p = rng.random(n_bins)
    return _dist(p / p.sum())


def test_default_bandwidths():
    assert KernelConfig().bandwidths == (0.01, 0.1, 1.0, 10.0, 100.0)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(())
    with pytest.raises(ValueError):
        KernelConfig((1.0, -2.0))


def test_kernel_value_oracle():
    # single bandwidth 1, squared distance 1 -> exp(-1/2)
    assert kernel_value([0.0], [1.0], BANDWIDTH_ONE) == pytest.approx(np.exp(-0.5))
    # at zero distance each bandwidth contributes exactly 1
    assert kernel_value([2.0], [2.0], KernelConfig()) == pytest.approx(5.0)


def test_kernel_value_dimension_check():
    with pytest.raises(ValueError):
        kernel_value([0.0], [0.0, 1.0], BANDWIDTH_ONE)


def test_mmd_point_masses_oracle():
    # L = K(0,0) + K(1,1) - 2 K(0,1) = 2 - 2 exp(-1/2) = 0.786938680...
    p = _dist([1.0, 0.0])
    q = _dist([0.0, 1.0])
    assert mmd_loss(p, q, BANDWIDTH_ONE) == pytest.approx(2 - 2 * np.exp(-0.5))
    assert mmd_loss(p, q, BANDWIDTH_ONE) == pytest.approx(0.7869386805747332, abs=1e-12)


def test_mmd_zero_for_identical():
    rng = np.random.default_rng(0)
    p = _random_dist(rng)
    assert mmd_loss(p, p, KernelConfig()) == pytest.approx(0.0, abs=1e-12)


def test_mmd_layout_mismatch():
    with pytest.raises(ValueError):
        mmd_loss(_dist(np.ones(4) / 4), _dist(np.ones(4) / 4, (1, 1)), KernelConfig())


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_mmd_nonnegative_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    p, q = _random_dist(rng), _random_dist(rng)
    config = KernelConfig()
    assert mmd_loss(p, q, config) >= -1e-12
    assert mmd_loss(p, q, config) == pytest.approx(mmd_loss(q, p, config), abs=1e-12)


def test_mmd_samples_matches_exact_on_empirical():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 4, size=200).astype(float)
    y = rng.integers(0, 4, size=300).astype(float)
    px = _dist(np.bincount(x.astype(int), minlength=4) / len(x))
    py = _dist(np.bincount(y.astype(int), minlength=4) / len(y))
    config = KernelConfig()
    assert mmd_loss_samples(x, y, config) == pytest.approx(
        mmd_loss(px, py, config), abs=1e-10
    )


def test_gram_cache_reused():
    cache = GramCache((2,), BANDWIDTH_ONE)
    p = _dist([0.5, 0.5, 0.0, 0.0])
    q = _dist([0.0, 0.0, 0.5, 0.5])
    assert mmd_loss(p, q, BANDWIDTH_ONE, cache) == pytest.approx(
        mmd_loss(p, q, BANDWIDTH_ONE)
    )


def _finite_difference(model, target, config, h=1e-6):
    grad = np.empty(model.circuit.n_parameters)
    for i in range(len(grad)):
        tp, tm = model.theta.copy(), model.theta.copy()
        tp[i] += h
        tm[i] -= h
        lp = mmd_loss(model_distribution(model.with_theta(tp)), target, config)
        lm = mmd_loss(model_distribution(model.with_theta(tm)), target, config)
        grad[i] = (lp - lm) / (2 * h)
    return grad


def test_gradient_matches_finite_differences_rzz_ansatz():
    # the RZZ gates use the quarter-shift rule; verify against central FD
    rng = np.random.default_rng(2)
    circuit = build_1d_rzz_ansatz(3)
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    target = _random_dist(rng)
    config = KernelConfig()
    analytic = mmd_gradient(model, target, config)
    numeric = _finite_difference(model, target, config)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


def test_gradient_with_linear_transform():
    rng = np.random.default_rng(3)
    circuit = build_hardware_efficient(3, 1)
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    target = _random_dist(rng)
    config = KernelConfig()
    m = np.full((8, 8), 0.02) + 0.84 * np.eye(8)  # column-stochastic channel
    transform = lambda p: m @ p

    analytic = mmd_gradient(model, target, config, transform=m)
    h = 1e-6
    numeric = np.empty_like(analytic)
    for i in range(len(numeric)):
        tp, tm = model.theta.copy(), model.theta.copy()
        tp[i] += h
        tm[i] -= h
        dp = model_distribution(model.with_theta(tp))
        dm = model_distribution(model.with_theta(tm))
        lp = mmd_loss(_dist(transform(dp.probs)), target, config)
        lm = mmd_loss(_dist(transform(dm.probs)), target, config)
        numeric[i] = (lp - lm) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


def _random_model(rng, n_qubits, n_gates=14):
    """Random RY/RX/RZZ/H/CNOT circuit; a quarter of the rotations read data
    slots, the rest trainable ones."""
    kinds = ["RY", "RX", "H"] + (["RZZ", "CNOT"] if n_qubits > 1 else [])
    gates, n_params, n_data = [], 0, 0
    for _ in range(n_gates):
        kind = str(rng.choice(kinds))
        arity = 2 if kind in ("RZZ", "CNOT") else 1
        targets = tuple(int(q) for q in rng.choice(n_qubits, size=arity, replace=False))
        if kind in ("H", "CNOT"):
            gates.append(Gate(kind, targets))
        elif rng.random() < 0.25:
            gates.append(Gate(kind, targets, data_slot=n_data))
            n_data += 1
        else:
            gates.append(Gate(kind, targets, param_slot=n_params))
            n_params += 1
    gates.append(Gate("RY", (0,), param_slot=n_params))
    circuit = CircuitSpec(n_qubits, tuple(gates), n_params + 1, n_data_slots=n_data)
    theta = rng.uniform(0, 2 * np.pi, circuit.n_parameters)
    return BornModel(circuit, theta, (50.0, 200.0) if n_data else None)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 4), noisy=st.booleans())
def test_adjoint_gradient_matches_parameter_shift(seed, n_qubits, noisy):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n_qubits)
    condition = rng.uniform(50.0, 200.0) if model.condition_range else None
    target = _random_dist(rng, 2**n_qubits)
    transform = None
    if noisy:  # a random column-stochastic channel
        transform = rng.random((2**n_qubits, 2**n_qubits))
        transform /= transform.sum(axis=0)
    config = KernelConfig()
    np.testing.assert_allclose(
        mmd_gradient(model, target, config, condition, transform=transform),
        mmd_gradient_shift(model, target, config, condition, transform=transform),
        rtol=0,
        atol=1e-12,
    )


def test_total_variance_oracle():
    p = _dist([1.0, 0.0])
    q = _dist([0.0, 1.0])
    assert total_variance(p, q) == pytest.approx(1.0)
    assert total_variance(p, p) == pytest.approx(0.0)
    assert total_variance(_dist([0.6, 0.4]), _dist([0.4, 0.6])) == pytest.approx(0.2)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_total_variance_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    p, q, r = (_random_dist(rng) for _ in range(3))
    assert total_variance(p, q) >= 0
    assert total_variance(p, q) <= 1 + 1e-12
    assert total_variance(p, q) == pytest.approx(total_variance(q, p), abs=1e-12)
    assert total_variance(p, r) <= total_variance(p, q) + total_variance(q, r) + 1e-12
    assert total_variance(p, p) == pytest.approx(0.0, abs=1e-12)


def test_pearson_hand_example():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    samples = np.column_stack([x, 2 * x + 1, -x])
    r = pearson_correlation(samples)
    assert r[0, 1] == pytest.approx(1.0)
    assert r[0, 2] == pytest.approx(-1.0)
    np.testing.assert_allclose(np.diag(r), 1.0)


def test_pearson_zero_variance_error():
    with pytest.raises(ValueError):
        pearson_correlation(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_pearson_input_validation():
    with pytest.raises(ValueError):
        pearson_correlation(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pearson_correlation(np.array([[1.0, 2.0]]))


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(0.1, 50.0),
    offset=st.floats(-10.0, 10.0),
)
def test_pearson_affine_invariance(seed, scale, offset):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((50, 3))
    rescaled = samples.copy()
    rescaled[:, 1] = scale * rescaled[:, 1] + offset
    np.testing.assert_allclose(
        pearson_correlation(samples), pearson_correlation(rescaled), atol=1e-10
    )
