"""End-to-end acceptance criteria.

Each test runs one pinned configuration end to end and prints a single
pass/fail line with the measured values (visible with ``pytest -s``).
"""
import time

import numpy as np

from borngen.baseline import (
    GmmdConfig,
    MlpSpec,
    flatten_weights,
    forward,
    gmmd_loss_and_grad,
    init_weights,
    train_gmmd,
    unflatten_weights,
)
from borngen.born import BornModel, model_distribution
from borngen.circuits import (
    CorrelationBlockChoice,
    build_1d_rzz_ansatz,
    build_conditional,
    build_correlation_block,
    build_multivariate,
)
from borngen.data import (
    BinningSpec,
    apply_preprocess,
    discretize,
    preprocess,
    synthesize_mfc,
    train_test_split,
)
from borngen.distributions import DiscreteDistribution, sample
from borngen.experiments import ExperimentConfig, run_experiment
from borngen.metrics import KernelConfig, mmd_gradient, mmd_loss, total_variance
from borngen.noise import (
    NoiseConfig,
    apply_readout_noise,
    mitigate_readout,
    readout_matrix,
)
from borngen.optimize import TrainConfig, train
from borngen.sim import Gate, run_circuit
from borngen.circuits import CircuitSpec


def _verdict(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] acceptance {number}: {description} — {detail}")
    assert ok, f"acceptance {number} failed: {detail}"


def _random_model(rng, max_qubits=6, max_params=12):
    n_qubits = int(rng.integers(2, max_qubits + 1))
    gates = []
    slot = 0
    while slot < int(rng.integers(3, max_params + 1)):
        kind = rng.choice(["RY", "RX", "RZZ"])
        if kind == "RZZ":
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("RZZ", (int(a), int(b)), param_slot=slot))
        else:
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),), param_slot=slot))
        slot += 1
        if rng.random() < 0.3 and n_qubits > 1:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(a), int(b))))
    circuit = CircuitSpec(n_qubits, tuple(gates), slot)
    theta = rng.uniform(0, 2 * np.pi, slot)
    return BornModel(circuit, theta)


def test_acceptance_1_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    config = KernelConfig()
    worst = -np.inf
    for _ in range(20):
        model = _random_model(rng)
        probs = rng.random(2**model.circuit.n_qubits)
        target = DiscreteDistribution(probs / probs.sum(), (model.circuit.n_qubits,))
        analytic = mmd_gradient(model, target, config)
        h = 1e-5
        for i in range(model.circuit.n_parameters):
            tp, tm = model.theta.copy(), model.theta.copy()
            tp[i] += h
            tm[i] -= h
            lp = mmd_loss(model_distribution(model.with_theta(tp)), target, config)
            lm = mmd_loss(model_distribution(model.with_theta(tm)), target, config)
            numeric = (lp - lm) / (2 * h)
            margin = abs(analytic[i] - numeric) - (1e-5 * abs(numeric) + 1e-9)
            worst = max(worst, margin)
    elapsed = time.time() - start
    _verdict(
        1,
        "parameter-shift gradient matches finite differences",
        worst <= 0 and elapsed < 60,
        f"worst tolerance margin {worst:.2e} (rtol 1e-5, atol 1e-9) "
        f"over 20 random models, {elapsed:.0f}s",
    )


def test_acceptance_2_parameter_counts():
    counts = (
        build_1d_rzz_ansatz(4).n_parameters,
        build_multivariate(3, 3, 4, CorrelationBlockChoice()).n_parameters,
        build_conditional(3, 4).n_parameters,
    )
    _verdict(
        2,
        "builders reproduce the published parameter counts",
        counts == (18, 45, 27),
        f"(1D, multivariate, conditional) = {counts}, want (18, 45, 27)",
    )


def test_acceptance_3_one_dimensional_experiment(tmp_path):
    start = time.time()
    config = ExperimentConfig({"experiment": "exp-1d", "seed": 1})
    report = run_experiment(config, tmp_path / "exp-1d")
    tv = report["metrics"]["tv"]
    elapsed = time.time() - start
    _verdict(
        3,
        "1D 16-bin experiment reaches TV <= 0.08 in 70 epochs",
        tv <= 0.08 and elapsed < 120,
        f"TV {tv:.4f}, {elapsed:.0f}s",
    )


def test_acceptance_4_multivariate_experiment(tmp_path):
    start = time.time()
    config = ExperimentConfig({"experiment": "exp-multi", "seed": 1})
    report = run_experiment(config, tmp_path / "exp-multi")
    m = report["metrics"]
    tvs = m["tv_per_feature"]
    r = np.asarray(m["pearson_generated"])
    generated = (r[0, 1], r[0, 2], r[1, 2])
    targets = (0.43, 0.89, 0.61)
    tv_ok = max(tvs.values()) <= 0.10
    corr_ok = all(abs(g - t) <= 0.20 for g, t in zip(generated, targets))
    elapsed = time.time() - start
    _verdict(
        4,
        "multivariate experiment: marginal TVs <= 0.10, Pearson within 0.20",
        tv_ok and corr_ok and elapsed < 900,
        f"TVs {({k: round(v, 3) for k, v in tvs.items()})}, "
        f"Pearson {tuple(round(g, 3) for g in generated)} vs {targets}, {elapsed:.0f}s",
    )


def test_acceptance_5_conditional_experiment(tmp_path):
    start = time.time()
    config = ExperimentConfig({"experiment": "exp-cond", "seed": 2})
    report = run_experiment(config, tmp_path / "exp-cond")
    tv = report["metrics"]["tv_held_out"]
    elapsed = time.time() - start
    _verdict(
        5,
        "conditional experiment: held-out 125 GeV TV <= 0.08 in 30 epochs",
        tv <= 0.08 and elapsed < 600,
        f"held-out TV {tv:.4f}, {elapsed:.0f}s",
    )


def test_acceptance_6_block_comparison(tmp_path):
    start = time.time()
    config = ExperimentConfig({"experiment": "exp-blocks", "seed": 1})
    report = run_experiment(config, tmp_path / "exp-blocks")
    m = report["metrics"]
    completed = len(m["blocks"]) == 8
    top3 = m["ranking"][:3]
    linear_ok = "(linear, 1)" in top3 and "(linear, all)" in top3
    elapsed = time.time() - start
    _verdict(
        6,
        "all 8 correlation blocks train; (linear,1) and (linear,all) in best 3",
        completed and linear_ok and elapsed < 1800,
        f"ranking {m['ranking']}, {elapsed:.0f}s",
    )


def test_acceptance_7_noise_mitigation():
    start = time.time()
    rng = np.random.default_rng(0)
    n_qubits = 4
    config = NoiseConfig(readout_flip_prob=0.029)
    confusion = readout_matrix(n_qubits, config)
    probs = rng.random(2**n_qubits)
    clean = DiscreteDistribution(probs / probs.sum(), (n_qubits,))
    noisy = apply_readout_noise(clean, config)
    round_trip_tv = total_variance(mitigate_readout(noisy, confusion), clean)

    wins = 0
    n_trials = 100
    for trial in range(n_trials):
        draws = sample(noisy, 100_000, trial)
        freq = np.bincount(draws, minlength=len(noisy.probs)) / 100_000
        empirical = DiscreteDistribution(freq, clean.register_bits)
        raw_tv = total_variance(empirical, clean)
        mitigated_tv = total_variance(mitigate_readout(empirical, confusion), clean)
        wins += mitigated_tv <= raw_tv
    elapsed = time.time() - start
    _verdict(
        7,
        "mitigation: exact round trip <= 1e-9; shot-level wins >= 95/100",
        round_trip_tv <= 1e-9 and wins >= 95 and elapsed < 120,
        f"round-trip TV {round_trip_tv:.1e}, {wins}/100 trials improved, {elapsed:.0f}s",
    )


def test_acceptance_8_property_suite():
    rng = np.random.default_rng(0)
    checks = {}

    # simulator unitarity / normalization at 1e-10
    circuit = build_1d_rzz_ansatz(5)
    psi = run_circuit(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    checks["norm"] = abs(np.vdot(psi, psi).real - 1.0) <= 1e-10

    # Bell and GHZ construction
    bell = build_correlation_block(2, 1, CorrelationBlockChoice(style="bell"))
    p = np.abs(run_circuit(bell, [])) ** 2
    checks["bell"] = np.allclose(p, [0.5, 0, 0, 0.5], atol=1e-10)
    ghz = build_correlation_block(3, 1, CorrelationBlockChoice(style="bell"))
    p = np.abs(run_circuit(ghz, [])) ** 2
    checks["ghz"] = abs(p[0] - 0.5) <= 1e-10 and abs(p[7] - 0.5) <= 1e-10

    # MMD nonnegativity/symmetry and TV axioms on random distributions
    config = KernelConfig()
    ok_mmd, ok_tv = True, True
    for _ in range(25):
        a, b = rng.random(8), rng.random(8)
        da = DiscreteDistribution(a / a.sum(), (3,))
        db = DiscreteDistribution(b / b.sum(), (3,))
        ok_mmd &= mmd_loss(da, db, config) >= -1e-12
        ok_mmd &= abs(mmd_loss(da, db, config) - mmd_loss(db, da, config)) <= 1e-12
        tv = total_variance(da, db)
        ok_tv &= 0 <= tv <= 1 and abs(tv - total_variance(db, da)) <= 1e-12
    checks["mmd"] = ok_mmd
    checks["tv"] = ok_tv

    # determinism of a full training pipeline under a fixed seed
    circuit = build_1d_rzz_ansatz(3)
    model = BornModel(circuit, np.zeros(circuit.n_parameters))
    probs = rng.random(8)
    target = DiscreteDistribution(probs / probs.sum(), (3,))
    t1, _ = train(model, target, TrainConfig(max_epochs=3, seed=0))
    t2, _ = train(model, target, TrainConfig(max_epochs=3, seed=0))
    checks["determinism"] = bool(np.array_equal(t1.theta, t2.theta))

    failed = [k for k, v in checks.items() if not v]
    _verdict(
        8,
        "property suite (unitarity, Bell/GHZ, MMD, TV, determinism)",
        not failed,
        f"all {len(checks)} groups green" if not failed else f"failed: {failed}",
    )


def test_acceptance_9_gmmd_baseline():
    start = time.time()
    # backprop oracle against finite differences at relative 1e-4
    rng = np.random.default_rng(0)
    small = MlpSpec(3, (5, 4), 1)
    weights = init_weights(small, seed=0)
    z = rng.standard_normal((16, 3))
    data = rng.standard_normal((20, 1))
    kernel = KernelConfig()
    _, grads = gmmd_loss_and_grad(weights, z, data, kernel)
    flat, flat_grad = flatten_weights(weights), flatten_weights(grads)
    worst = 0.0
    for i in rng.choice(len(flat), size=20, replace=False):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += 1e-6
        fm[i] -= 1e-6
        lp, _ = gmmd_loss_and_grad(unflatten_weights(fp, small), z, data, kernel)
        lm, _ = gmmd_loss_and_grad(unflatten_weights(fm, small), z, data, kernel)
        numeric = (lp - lm) / 2e-6
        worst = max(worst, abs(flat_grad[i] - numeric) / max(abs(numeric), 1e-8))
    grad_ok = worst <= 1e-4

    # full baseline on the 1D synthetic target
    events = synthesize_mfc(10240, 50.0, seed=0)
    train_events, test_events = train_test_split(events, 0)
    train_feats, params = preprocess(train_events)
    test_feats = apply_preprocess(test_events, params)
    x_train, x_test = train_feats[:, :1], test_feats[:, :1]
    binning = BinningSpec.from_training_data(x_train, [16])
    spec = MlpSpec(15, (64, 128, 64, 16), 1)
    best, _ = train_gmmd(
        spec, x_train, GmmdConfig(max_epochs=100, seed=0), binning=binning, val_dataset=x_test
    )
    generated = forward(best, np.random.default_rng(123).standard_normal((100_000, 15)))
    tv = total_variance(discretize(generated, binning), discretize(x_test, binning))
    elapsed = time.time() - start
    _verdict(
        9,
        "GMMD baseline: backprop oracle 1e-4; discretized TV <= 0.06",
        grad_ok and tv <= 0.06 and elapsed < 300,
        f"worst gradient rel err {worst:.1e}, TV {tv:.4f}, {elapsed:.0f}s",
    )
