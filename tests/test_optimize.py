"""Optimizers, learning-rate schedule and the training loop."""
import warnings

import numpy as np
import pytest

from borngen.born import BornModel, model_distribution
from borngen.circuits import build_1d_rzz_ansatz, build_conditional
from borngen.distributions import DiscreteDistribution
from borngen import experiments, optimize
from borngen.metrics import mmd_gradient, mmd_loss, total_variance
from borngen.sim import Gate
from borngen.optimize import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    init_parameters,
    learning_rate,
    spsa_step,
    trace_to_json,
    train,
)


def test_adam_first_step_is_signed_lr():
    # with bias correction, m_hat = g and v_hat = g^2 on the first step,
    # so each coordinate moves by exactly lr * sign(g) (up to eps)
    theta = np.zeros(3)
    g = np.array([0.3, -0.01, 2.0])
    state = AdamState.init(3)
    new_theta = adam_step(theta, g, state, lr=0.01)
    np.testing.assert_allclose(new_theta, [-0.01, 0.01, -0.01], atol=1e-6)
    assert state.t == 1


def test_adam_converges_on_quadratic():
    theta = np.array([1.0, -2.0])
    state = AdamState.init(2)
    for _ in range(2000):
        theta = adam_step(theta, 2 * theta, state, lr=0.01)
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
        theta = spsa_step(theta, loss, k, rng)
    assert loss(theta) < initial / 10


def test_spsa_uses_exactly_two_evaluations():
    calls = []
    loss = lambda t: calls.append(1) or float(np.sum(t**2))
    spsa_step(np.zeros(4), loss, 0, np.random.default_rng(0))
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


@pytest.mark.parametrize("value, accepted", [(5, True), (np.int64(5), True), (np.uint8(5), True),
                                             (True, False), (np.True_, False), (5.0, False)])
@pytest.mark.parametrize("name", ["lr_halving_period", "batches_per_epoch", "batch_size",
                                  "max_epochs", "spsa_epochs"])
def test_counts_and_gate_slots_take_the_same_integers(name, value, accepted):
    # one check serves both: numpy integers are integers, and a bool is none
    for build in (lambda: TrainConfig(**{name: value}), lambda: Gate("RY", (0,), param_slot=value)):
        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="integer"):
                build()


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


def test_train_layout_mismatch(monkeypatch):
    model, target = _toy_problem()
    bad = DiscreteDistribution(np.ones(4) / 4, (2,))
    with pytest.raises(ValueError):
        train(model, bad, TrainConfig(max_epochs=1))
    # a validation target of another layout fails before the first step
    gradients, gradient = [], optimize.mmd_gradient
    monkeypatch.setattr(optimize, "mmd_gradient", lambda *args: gradients.append(args) or gradient(*args))
    with pytest.raises(ValueError, match="target bin layout does not match the model"):
        train(model, target, TrainConfig(max_epochs=1), val_target=bad)
    assert gradients == []


def test_train_rejects_an_empty_target_mapping():
    model, _ = _toy_problem()
    with pytest.raises(ValueError, match="at least one target"):
        train(model, {}, TrainConfig(max_epochs=1))


def test_train_divergence_detected(monkeypatch):
    model, target = _toy_problem(7)
    config = TrainConfig(max_epochs=3, seed=0)
    # ADAM at an infinite rate, which no config can hold, leaves theta
    # infinite; caught at the first step, before numpy warns about it
    monkeypatch.setattr(optimize, "adam_step",
                        lambda theta, grad, state, lr: adam_step(theta, grad, state, np.inf))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError, match="non-finite theta at epoch 0, step 0"):
            train(model, target, config)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _functional_adam(theta, gradient, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """ADAM as a pure function of its state: the new theta, m and v."""
    m = beta1 * m + (1 - beta1) * gradient
    v = beta2 * v + (1 - beta2) * gradient**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_step_updates_its_state_in_place_with_the_functional_arithmetic():
    rng = np.random.default_rng(8)
    theta = np.zeros(7)  # near 0, so that theta - step keeps the step's last bits
    ref_theta, m, v = theta.copy(), np.zeros(7), np.zeros(7)
    state = AdamState.init(7)
    moments = state.m, state.v
    for t in range(1, 51):
        g = rng.standard_normal(7) * 10.0 ** rng.integers(-6, 3)
        lr = learning_rate(TrainConfig(lr_halving_period=20), t)
        theta = adam_step(theta, g, state, lr)
        ref_theta, m, v = _functional_adam(ref_theta, g, m, v, t, lr)
        assert (state.m, state.v) == moments and state.t == t
        assert (theta == ref_theta).all() and (state.m == m).all() and (state.v == v).all()


def _reference_train(model, targets, config, val_targets):
    """train as one plain loop over the public mmd_gradient, mmd_loss and
    spsa_step and the functional ADAM formula: the best theta and the
    trace rows."""
    conditions = sorted(targets, key=lambda c: (c is not None, c))

    def dist(theta, cond):
        return model_distribution(model.with_theta(theta), cond)

    rng = np.random.default_rng(config.seed)
    theta = model.theta.copy()
    best, best_val = theta.copy(), np.inf
    m = v = np.zeros(len(theta))
    t = spsa_iteration = 0
    rows = []
    for epoch in range(config.max_epochs + config.spsa_epochs):
        lr = learning_rate(config, epoch)
        spsa = config.optimizer == "spsa" or epoch >= config.max_epochs
        if epoch == config.max_epochs:
            theta = best.copy()
        for cond in conditions:
            for _ in range(config.batches_per_epoch):
                target = targets[cond]
                if config.batch_size is not None:
                    probs = target.probs / target.probs.sum()
                    counts = rng.multinomial(config.batch_size, probs)
                    target = DiscreteDistribution(counts / config.batch_size, target.register_bits)
                if spsa:
                    loss = lambda th: mmd_loss(dist(th, cond), target, config.kernel)
                    theta = spsa_step(theta, loss, spsa_iteration, rng)
                    spsa_iteration += 1
                else:
                    grad = mmd_gradient(model.with_theta(theta), target, config.kernel, cond)
                    t += 1
                    theta, m, v = _functional_adam(theta, grad, m, v, t, lr)
        dists = {c: dist(theta, c) for c in conditions}
        row = {"epoch": epoch, "lr": lr, "phase": "spsa" if spsa else "adam"}
        row["grad_norm"] = 0.0 if spsa else float(np.linalg.norm(grad))
        for key, target_map in (("train_loss", targets), ("val_loss", val_targets)):
            row[key] = float(np.mean([mmd_loss(dists[c], target_map[c], config.kernel) for c in conditions]))
        row["tv"] = float(np.mean([total_variance(dists[c], val_targets[c]) for c in conditions]))
        rows.append(row)
        if row["val_loss"] < best_val:
            best, best_val = theta.copy(), row["val_loss"]
    return best, rows


def _random_targets(rng, conditions, bits):
    targets = {}
    for cond in conditions:
        probs = rng.random(2**bits)
        targets[cond] = DiscreteDistribution(probs / probs.sum(), (bits,))
    return targets


@pytest.mark.parametrize("case", ["exact", "batches", "six-conditions", "spsa-epochs"])
def test_train_equals_a_reference_loop_of_the_public_gradient(case):
    rng = np.random.default_rng(9)
    settings = {
        "exact": {},
        "batches": {"batch_size": 256},
        "six-conditions": {},
        "spsa-epochs": {"spsa_epochs": 2},
    }[case]
    config = TrainConfig(max_epochs=4, seed=3, **settings)
    if case == "six-conditions":
        circuit = build_conditional(3, 2)
        model = BornModel(circuit, init_parameters(circuit.n_parameters, "small_normal", 1), (50.0, 200.0))
        conditions = (50.0, 75.0, 100.0, 125.0, 175.0, 200.0)
    else:
        model, _ = _toy_problem(2)
        conditions = (None,)
    targets = _random_targets(rng, conditions, 3)
    val_targets = _random_targets(rng, conditions, 3)
    theta, rows = _reference_train(model, targets, config, val_targets)
    trained, trace = train(model, targets, config, val_targets)
    assert (trained.theta == theta).all()
    assert trace_to_json(trace) == rows


def test_train_calls_the_gradient_and_adam_once_per_step(monkeypatch, tmp_path):
    # the benchmark's tracer times and counts these two bindings per step
    steps = {"gradient": [], "adam": []}

    def spy(name, fn, record):
        def spied(*args, **kwargs):
            steps[name].append(record(*args))
            return fn(*args, **kwargs)

        monkeypatch.setattr(optimize, fn.__name__, spied)

    spy("gradient", optimize.mmd_gradient, lambda model, *_: model)
    spy("adam", optimize.adam_step, lambda theta, *_: np.array(theta))
    config = experiments.ExperimentConfig({"experiment": "exp-1d", "seed": 1, "train": {"max_epochs": 70}})
    experiments.run_experiment(config, tmp_path)
    assert len(steps["gradient"]) == len(steps["adam"]) == 700
    for model, theta in zip(steps["gradient"], steps["adam"]):
        assert isinstance(model, BornModel) and (model.theta == theta).all()
