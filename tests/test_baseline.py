"""Classical MLP generator trained on the sample MMD."""
import warnings

import numpy as np
import pytest

from borngen.baseline import (
    _FORWARD_ROWS,
    GmmdConfig,
    MlpSpec,
    _forward_cache,
    flatten_weights,
    forward,
    gmmd_batch_loss,
    gmmd_loss_and_grad,
    init_weights,
    load_weights,
    save_weights,
    train_gmmd,
    unflatten_weights,
)
from borngen import baseline, metrics
from borngen.data import BinningSpec
from borngen.metrics import KernelConfig, SampleTarget, mmd_loss_samples
from borngen.optimize import TrainConfig, TrainingDivergedError, adam_step

SPEC = MlpSpec(latent_dim=4, hidden=(8, 6), output_dim=2)


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(0, (8,), 1)
    with pytest.raises(ValueError):
        MlpSpec(4, (0,), 1)
    assert SPEC.layer_sizes == (4, 8, 6, 2)


def test_init_weights_shapes_and_glorot_bounds():
    weights = init_weights(SPEC, seed=0)
    shapes = [(w.shape, b.shape) for w, b in weights]
    assert shapes == [((4, 8), (8,)), ((8, 6), (6,)), ((6, 2), (2,))]
    for w, b in weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        assert np.abs(w).max() <= limit
        assert np.all(b == 0)


def test_forward_shapes_and_latent_check():
    weights = init_weights(SPEC, seed=0)
    out = forward(weights, np.zeros((10, 4)))
    assert out.shape == (10, 2)
    with pytest.raises(ValueError):
        forward(weights, np.zeros((10, 3)))


def test_forward_matches_backprop_cache_exactly():
    weights = init_weights(SPEC, seed=5)
    for rows in (300, _FORWARD_ROWS + 7):  # one block, and a full block plus a short one
        z = np.random.default_rng(rows).standard_normal((rows, 4))
        np.testing.assert_array_equal(forward(weights, z), _forward_cache(weights, z)[-1])


def test_flatten_round_trip():
    weights = init_weights(SPEC, seed=1)
    flat = flatten_weights(weights)
    restored = unflatten_weights(flat, SPEC)
    for (w0, b0), (w1, b1) in zip(weights, restored):
        np.testing.assert_array_equal(w0, w1)
        np.testing.assert_array_equal(b0, b1)


def test_batch_loss_zero_for_identical_batches():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2))
    assert gmmd_batch_loss(x, x, KernelConfig()) == pytest.approx(0.0, abs=1e-10)


def test_batch_loss_positive_for_shifted_batches():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 2))
    assert gmmd_batch_loss(x, x + 3.0, KernelConfig()) > 0.1


def test_batch_loss_is_the_sample_mmd():
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((70, 2)), rng.standard_normal((90, 2)) + 0.5
    assert gmmd_batch_loss(x, y, KernelConfig()) == mmd_loss_samples(x, y, KernelConfig())


@pytest.mark.parametrize("features", [1, 2])
def test_each_sample_mmd_takes_one_kernel_call(features, monkeypatch):
    # a training step's loss, gradient and data self-sum come from one call
    # over the joint sample; a validation loss from one call plus the
    # target's cached self-sum
    rng = np.random.default_rng(9)
    spec = MlpSpec(3, (5,), features)
    config = KernelConfig()
    data = rng.standard_normal((40, features))
    target = SampleTarget(data, config)
    calls = []

    def spy(*args, real=metrics._kernel_rows, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "_kernel_rows", spy)
    gmmd_loss_and_grad(init_weights(spec), rng.standard_normal((32, 3)), data, config)
    assert len(calls) == 1
    gmmd_batch_loss(rng.standard_normal((50, features)), target, config)
    assert len(calls) == 2


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(2)
    spec = MlpSpec(3, (5, 4), 2)
    weights = init_weights(spec, seed=2)
    z = rng.standard_normal((16, 3))
    data = rng.standard_normal((20, 2))
    config = KernelConfig()
    loss, grads = gmmd_loss_and_grad(weights, z, data, config)
    flat = flatten_weights(weights)
    flat_grad = flatten_weights(grads)

    h = 1e-6
    for i in rng.choice(len(flat), size=25, replace=False):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        lp, _ = gmmd_loss_and_grad(unflatten_weights(fp, spec), z, data, config)
        lm, _ = gmmd_loss_and_grad(unflatten_weights(fm, spec), z, data, config)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), 1e-8)
        assert abs(flat_grad[i] - numeric) / denom <= 1e-4


def test_training_reduces_validation_loss():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((2000, 1)) * 0.5 + 1.0
    spec = MlpSpec(4, (16, 16), 1)
    config = GmmdConfig(max_epochs=15, batch_size=128, seed=0)
    weights, trace = train_gmmd(spec, data, config, BinningSpec.from_training_data(data, [16]))
    assert len(trace) == 15
    assert min(r.val_loss for r in trace) < trace[0].val_loss
    generated = forward(weights, rng.standard_normal((1000, 4)))
    assert abs(generated.mean() - 1.0) < 0.3


_BAD_SCHEDULE = [
    ("initial_lr", 0.0),
    ("initial_lr", -0.01),
    ("initial_lr", float("nan")),
    ("initial_lr", float("inf")),
    ("initial_lr", True),
    ("lr_halving_period", 0),
    ("batches_per_epoch", 0),
    ("batch_size", 0),
    ("max_epochs", 0),
    ("lr_halving_period", 2.5),
    ("batches_per_epoch", 2.5),
    ("batch_size", 2.5),
    ("max_epochs", 2.5),
    ("lr_halving_period", True),
    ("batches_per_epoch", True),
    ("batch_size", True),
    ("max_epochs", True),
]


@pytest.mark.parametrize(
    "config_class, field, value",
    [
        pytest.param(config_class, field, value, id=f"{prefix}{field}-{value}")
        for config_class, prefix in ((GmmdConfig, ""), (TrainConfig, "TrainConfig-"))
        for field, value in _BAD_SCHEDULE
    ],
)
def test_config_rejects_non_positive_settings(config_class, field, value):
    # both configs share the schedule check, and reject when made, so no
    # training can start
    with pytest.raises(ValueError, match="must be"):
        config_class(**{field: value})


def test_gmmd_batch_size_is_always_a_count():
    # a GMMD batch is drawn from the data, and no exact target can stand in
    # for it, so null is a Born machine setting alone
    assert GmmdConfig().batch_size == 512
    with pytest.raises(ValueError, match="not batch_size=None"):
        GmmdConfig(batch_size=None)


def test_training_divergence_detected(monkeypatch):
    config = GmmdConfig(max_epochs=2, batch_size=32, seed=0)
    data = np.random.default_rng(7).standard_normal((200, 1))
    # ADAM at an infinite rate, which no config can hold, leaves the weights
    # infinite; caught at the first step, before numpy warns about them
    monkeypatch.setattr(baseline, "adam_step",
                        lambda flat, grad, state, lr: adam_step(flat, grad, state, np.inf))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError, match="non-finite weights at epoch 0, step 0"):
            train_gmmd(MlpSpec(4, (8,), 1), data, config, BinningSpec.from_training_data(data, [16]))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_finite_data_stops_training_at_the_first_step():
    # a NaN in the data batch reaches the dense sample kernel, whose NaN
    # loss the step's finite check catches; the binning and the validation
    # set are finite, so only the batch carries the NaN
    config = GmmdConfig(max_epochs=2, batches_per_epoch=2, batch_size=32, seed=0)
    val = np.random.default_rng(7).standard_normal((200, 1))
    binning = BinningSpec.from_training_data(val, [16])
    with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 0, step 0"):
        train_gmmd(MlpSpec(4, (8,), 1), np.full((200, 1), np.nan), config, binning, val)


def test_training_shape_check():
    data = np.linspace(0.0, 1.0, 100)[:, None]
    binning = BinningSpec.from_training_data(data, [16])
    with pytest.raises(ValueError):
        train_gmmd(MlpSpec(4, (8,), 2), data, GmmdConfig(max_epochs=1), binning)
    # a validation set with another feature count fails before any training
    with pytest.raises(ValueError, match="validation feature count"):
        train_gmmd(
            MlpSpec(4, (8,), 1),
            data,
            GmmdConfig(max_epochs=1),
            binning,
            val_dataset=np.zeros((100, 2)),
        )


def test_weight_serialization_round_trip(tmp_path):
    weights = init_weights(SPEC, seed=4)
    path = tmp_path / "weights.json"
    save_weights(weights, SPEC, path)
    restored, spec = load_weights(path)
    assert spec == SPEC
    for (w0, b0), (w1, b1) in zip(weights, restored):
        np.testing.assert_allclose(w0, w1)
        np.testing.assert_allclose(b0, b1)
