"""Optimizers, learning-rate schedule and the training loop."""
import warnings

import numpy as np
import pytest

from borngen.born import BornModel, model_distribution
from borngen.circuits import build_1d_rzz_ansatz, build_conditional
from borngen.distributions import DiscreteDistribution
from borngen.metrics import mmd_loss, total_variance
from borngen.noise import NoiseConfig, apply_readout_noise
from borngen.optimize import (
    AdamState,
    SpsaSettings,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    init_parameters,
    learning_rate,
    spsa_step,
    train,
)


def test_adam_first_step_is_signed_lr():
    # with bias correction, m_hat = g and v_hat = g^2 on the first step,
    # so each coordinate moves by exactly lr * sign(g) (up to eps)
    theta = np.zeros(3)
    g = np.array([0.3, -0.01, 2.0])
    new_theta, state = adam_step(theta, g, AdamState.init(3), lr=0.01)
    np.testing.assert_allclose(new_theta, [-0.01, 0.01, -0.01], atol=1e-6)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    theta = np.array([1.0, -2.0])
    state = AdamState.init(2)
    for _ in range(2000):
        theta, state = adam_step(theta, 2 * theta, state, lr=0.01)
    assert np.abs(theta).max() < 1e-3


def test_adam_shape_check():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), AdamState.init(2), 0.01)


def test_spsa_decreases_quadratic_loss():
    rng = np.random.default_rng(0)
    theta = np.full(6, 2.0)
    loss = lambda t: float(np.sum(t**2))
    initial = loss(theta)
    for k in range(300):
        theta = spsa_step(theta, loss, k, SpsaSettings(), rng)
    assert loss(theta) < initial / 10


def test_spsa_uses_exactly_two_evaluations():
    calls = []
    loss = lambda t: calls.append(1) or float(np.sum(t**2))
    spsa_step(np.zeros(4), loss, 0, SpsaSettings(), np.random.default_rng(0))
    assert len(calls) == 2


def test_learning_rate_halving_schedule():
    config = TrainConfig(initial_lr=0.01, lr_halving_period=20)
    assert learning_rate(config, 0) == pytest.approx(0.01)
    assert learning_rate(config, 19) == pytest.approx(0.01)
    assert learning_rate(config, 20) == pytest.approx(0.005)
    assert learning_rate(config, 40) == pytest.approx(0.0025)


def test_init_parameters_schemes():
    assert np.all(init_parameters(5, "zeros") == 0)
    u = init_parameters(100, "uniform_0_2pi", seed=1)
    assert u.min() >= 0 and u.max() <= 2 * np.pi
    n = init_parameters(100, "small_normal", seed=1)
    assert np.abs(n).max() < 1.0
    np.testing.assert_array_equal(
        init_parameters(10, "small_normal", 3), init_parameters(10, "small_normal", 3)
    )
    with pytest.raises(ValueError):
        init_parameters(5, "huge")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)


def test_mixed_optimizer_is_rejected_with_its_new_spelling():
    # ADAM then SPSA is "adam" with spsa_epochs > 0, and the message says so
    with pytest.raises(ValueError, match="unknown optimizer 'mixed': .*spsa_epochs"):
        TrainConfig(optimizer="mixed")


def test_batch_size_null_is_the_default():
    assert TrainConfig().batch_size is None  # the exact target


@pytest.mark.parametrize("value", [0, 2.5, True, -1, "512"])
def test_batch_size_is_null_or_a_count(value):
    with pytest.raises(ValueError, match="counts must be >= 1 and integers, not batch_size"):
        TrainConfig(batch_size=value)


def _toy_problem(seed=0, n_qubits=3):
    rng = np.random.default_rng(seed)
    circuit = build_1d_rzz_ansatz(n_qubits)
    model = BornModel(circuit, init_parameters(circuit.n_parameters, "small_normal", seed))
    probs = rng.random(2**n_qubits)
    target = DiscreteDistribution(probs / probs.sum(), (n_qubits,))
    return model, target


def test_train_reduces_loss_and_tracks_best():
    model, target = _toy_problem()
    config = TrainConfig(max_epochs=15, seed=0)
    trained, trace = train(model, target, config)
    assert len(trace) == 15
    assert trace[-1].val_loss < trace[0].val_loss
    # the returned parameters realize the best recorded validation loss
    best = min(r.val_loss for r in trace)
    final = mmd_loss(model_distribution(trained), target, config.kernel)
    assert final == pytest.approx(best, abs=1e-12)


def test_train_deterministic():
    model, target = _toy_problem(1)
    config = TrainConfig(max_epochs=5, seed=4)
    theta_a, trace_a = train(model, target, config)
    theta_b, trace_b = train(model, target, config)
    np.testing.assert_array_equal(theta_a.theta, theta_b.theta)
    assert [r.val_loss for r in trace_a] == [r.val_loss for r in trace_b]


def test_train_spsa_only():
    model, target = _toy_problem(2)
    _, trace = train(model, target, TrainConfig(optimizer="spsa", max_epochs=10, seed=0))
    assert all(r.phase == "spsa" for r in trace)
    assert trace[-1].val_loss < trace[0].val_loss


def test_train_mixed_phases():
    model, target = _toy_problem(3)
    config = TrainConfig(max_epochs=6, spsa_epochs=4, seed=0)
    _, trace = train(model, target, config)
    assert [r.phase for r in trace] == ["adam"] * 6 + ["spsa"] * 4


def test_train_spsa_fine_tuning_follows_any_optimizer():
    model, target = _toy_problem(3)
    config = TrainConfig(optimizer="spsa", max_epochs=3, spsa_epochs=2, seed=0)
    _, trace = train(model, target, config)
    assert [r.phase for r in trace] == ["spsa"] * 5
    assert [r.epoch for r in trace] == list(range(5))


def test_train_sampled_batches():
    model, target = _toy_problem(4)
    config = TrainConfig(max_epochs=8, seed=0, batch_size=512)
    _, trace = train(model, target, config)
    assert trace[-1].val_loss < trace[0].val_loss
    _, exact = train(model, target, TrainConfig(max_epochs=8, seed=0))
    assert trace[-1].val_loss != exact[-1].val_loss  # the batches are drawn, not exact


def test_train_multi_condition():
    rng = np.random.default_rng(5)
    circuit = build_conditional(3, 2)
    model = BornModel(
        circuit,
        init_parameters(circuit.n_parameters, "small_normal", 5),
        condition_range=(50.0, 200.0),
    )
    targets, val_targets = {}, {}
    for cond in (50.0, 125.0, 200.0):
        for target_map in (targets, val_targets):
            probs = rng.random(8)
            target_map[cond] = DiscreteDistribution(probs / probs.sum(), (3,))
    config = TrainConfig(max_epochs=5, seed=0)
    trained, trace = train(model, targets, config, val_targets)
    assert trace[-1].train_loss < trace[0].train_loss
    # the best epoch's three metrics are those of the returned model
    best = min(trace, key=lambda r: r.val_loss)
    dists = {cond: model_distribution(trained, cond) for cond in targets}
    for value, target_map in ((best.train_loss, targets), (best.val_loss, val_targets)):
        losses = [mmd_loss(dists[c], target_map[c], config.kernel) for c in targets]
        assert value == pytest.approx(np.mean(losses), abs=1e-12)
    tvs = [total_variance(dists[c], val_targets[c]) for c in targets]
    assert best.tv == pytest.approx(np.mean(tvs), abs=1e-12)


def test_train_with_readout_noise_transform():
    model, target = _toy_problem(6)
    noise = NoiseConfig(readout_flip_prob=0.029)
    config = TrainConfig(max_epochs=10, seed=0, noise=noise)
    trained, trace = train(model, apply_readout_noise(target, noise), config)
    assert trace[-1].val_loss < trace[0].val_loss


def test_train_layout_mismatch():
    model, _ = _toy_problem()
    bad = DiscreteDistribution(np.ones(4) / 4, (2,))
    with pytest.raises(ValueError):
        train(model, bad, TrainConfig(max_epochs=1))


def test_train_divergence_detected():
    model, target = _toy_problem(7)
    config = TrainConfig(max_epochs=3, seed=0, initial_lr=float("inf"))
    # caught at the first step, before numpy warns about the inf parameters
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError, match="non-finite theta at epoch 0, step 0"):
            train(model, target, config)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
