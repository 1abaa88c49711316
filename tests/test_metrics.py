"""MMD loss, adjoint and parameter-shift gradients, total variance, Pearson matrices."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from borngen.born import BornModel, model_distribution
from borngen.circuits import (
    CircuitSpec,
    all_block_choices,
    build_1d_rzz_ansatz,
    build_hardware_efficient,
    build_multivariate,
)
from borngen import metrics
from borngen.distributions import DiscreteDistribution
from borngen.sim import Gate
from borngen.metrics import (
    _TILE_ROWS,
    PAPER_BANDWIDTHS,
    GramCache,
    KernelConfig,
    SampleTarget,
    _gauss_transform_rows,
    _kernel_rows,
    _self_sum,
    _tiled_rows,
    mmd_gradient,
    mmd_loss,
    mmd_loss_samples,
    pearson_correlation,
    total_variance,
)
from shift_oracle import mmd_gradient_shift

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
    for bad in (float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError):
            KernelConfig((1.0, bad))
    assert KernelConfig((1, np.float32(2.0))).bandwidths == (1.0, 2.0)


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


def _dense_kernel_rows(x, y, config, weights=None):
    """The dense (n, m, d) formula the tiled kernel replaced, as its oracle:
    sum_j w_j K(x_i, y_j) and its x-gradient, w_j = 1 unless weights are
    given."""
    w = np.ones(len(y)) if weights is None else weights
    diff = x[:, None, :] - y[None, :, :]
    sq = (diff**2).sum(axis=-1)
    value = np.zeros_like(sq)
    grad = np.zeros_like(diff)
    for s in config.bandwidths:
        k = np.exp(-sq / (2.0 * s)) * w
        value += k
        grad += k[:, :, None] * (-diff / s)
    return value.sum(axis=1), grad.sum(axis=1)


def _dense_mmd(x, y, config):
    """The biased sample MMD from dense kernel blocks, values only."""

    def block(a, b):
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return sum(np.exp(-sq / (2.0 * s)).sum() for s in config.bandwidths)

    n, m = len(x), len(y)
    return block(x, x) / n**2 - 2.0 * block(x, y) / (n * m) + block(y, y) / m**2


# Sizes on and around one tile, and three that straddle tile edges for any
# power-of-two tile height up to 256 (255 = 4*64 - 1, 773 = 12*64 + 5).
_EDGE_SIZES = [1, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1, 3 * _TILE_ROWS + 5]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", sorted({*_EDGE_SIZES, 255, 257, 773}))
def test_tiled_kernel_rows_match_dense_oracle(n, d):
    rng = np.random.default_rng(n + d)
    config = KernelConfig()
    x = rng.standard_normal((n, d))
    y = 0.5 * rng.standard_normal((40, d)) + 0.2
    for other in (x, y):
        values, grads = _kernel_rows(x, other, config, grad=True)
        want_values, want_grads = _dense_kernel_rows(x, other, config)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(_kernel_rows(x, other, config), values)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", _EDGE_SIZES)
def test_self_sum_over_one_triangle_matches_dense_oracle(n, d):
    rng = np.random.default_rng(10 * n + d)
    config = KernelConfig()
    x = rng.standard_normal((n, d))
    want = _dense_kernel_rows(x, x, config)[0].sum()
    assert _self_sum(x, config) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_sample_target_matches_the_plain_array_path(d):
    rng = np.random.default_rng(d)
    config = KernelConfig()
    x = rng.standard_normal((3 * _TILE_ROWS + 5, d))
    y = 0.5 * rng.standard_normal((_TILE_ROWS + 1, d)) + 0.2
    target = SampleTarget(y, config)
    plain = mmd_loss_samples(x, y, config)
    assert mmd_loss_samples(x, target, config) == pytest.approx(plain, rel=1e-12, abs=1e-12)
    assert plain == pytest.approx(_dense_mmd(x, y, config), rel=1e-12, abs=1e-12)
    # the target reads as its rows, which it holds read-only
    assert len(np.atleast_2d(target)) == len(y)
    np.testing.assert_array_equal(np.asarray(target), y)
    with pytest.raises(ValueError):
        target.rows[0, 0] = 1.0


def test_sample_mmd_rejects_mismatched_feature_counts():
    config = KernelConfig()
    one, two = np.zeros((5, 1)), np.ones((7, 2))
    for x, y in ((one, two), (two, one), (one, SampleTarget(two, config))):
        with pytest.raises(ValueError, match="feature counts differ"):
            mmd_loss_samples(x, y, config)


def test_sample_target_rejects_another_kernel_config():
    y = np.zeros((4, 1))
    with pytest.raises(ValueError, match="another kernel config"):
        mmd_loss_samples(y, SampleTarget(y, BANDWIDTH_ONE), KernelConfig())


def test_sample_mmd_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    config = KernelConfig()
    x = rng.standard_normal((9, 2))
    y = 0.5 * rng.standard_normal((12, 2)) + 0.3
    loss, grad = mmd_loss_samples(x, y, config, grad=True)
    # both sum the same full rows
    assert loss == mmd_loss_samples(x, y, config)
    assert grad.shape == x.shape
    numeric, h = np.empty_like(x), 1e-6
    for i, j in np.ndindex(*x.shape):
        plus, minus = x.copy(), x.copy()
        plus[i, j] += h
        minus[i, j] -= h
        diff = mmd_loss_samples(plus, y, config) - mmd_loss_samples(minus, y, config)
        numeric[i, j] = diff / (2.0 * h)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_gmmd_trace_val_loss_matches_dense_recomputation(monkeypatch):
    from borngen import baseline

    seen = []

    def spy(generated, data, config, real=baseline.gmmd_batch_loss):
        seen.append((generated.copy(), np.array(data), config))
        return real(generated, data, config)

    monkeypatch.setattr(baseline, "gmmd_batch_loss", spy)
    rng = np.random.default_rng(4)
    data, val = 0.5 * rng.standard_normal((2, 300, 1)) + 1.0
    config = baseline.GmmdConfig(max_epochs=2, batches_per_epoch=2, batch_size=32, seed=0)
    _, trace = baseline.train_gmmd(baseline.MlpSpec(4, (8,), 1), data, config, val_dataset=val)
    assert len(seen) == len(trace) == 2
    for record, (generated, val_rows, kernel) in zip(trace, seen):
        assert np.isin(val_rows, val).all()
        want = _dense_mmd(generated, val_rows, kernel)
        assert record.val_loss == pytest.approx(want, rel=1e-12, abs=1e-12)


def _oracle_samples(rng, n, m, same, scale, shift, far):
    """(n, 1) and (m, 1) samples about shift (y is x when same), with a
    cluster of two samples far out on each side when far is given."""
    x = scale * rng.standard_normal((n, 1)) + shift
    y = x if same else 0.5 * scale * rng.standard_normal((m, 1)) + shift + scale
    if far is not None:
        x[:2] = shift + far + 0.5 * scale * rng.standard_normal((len(x[:2]), 1))
        if not same:
            y[-2:] = shift - far + 0.5 * scale * rng.standard_normal((len(y[-2:]), 1))
    return x, y


_ORACLE_SAMPLES = dict(
    n=st.integers(1, 600),
    m=st.integers(1, 600),
    same=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 10.0),
    shift=st.floats(-1e3, 1e3),
    far=st.sampled_from([None, 1e3, 1e6]),
)


@pytest.mark.parametrize("s", PAPER_BANDWIDTHS)
@settings(deadline=None, max_examples=25)
@given(**_ORACLE_SAMPLES)
def test_gauss_transform_matches_dense_oracle(s, n, m, same, seed, scale, shift, far):
    rng = np.random.default_rng(seed)
    x, y = _oracle_samples(rng, n, m, same, scale, shift, far)
    config = KernelConfig((s,))
    rows = _gauss_transform_rows(x[:, 0], y[:, 0], config, grad=True)
    # at s = 0.01 and scale 10, the bulk may be too wide a cluster, which
    # the dense tiles take (test_wide_cluster_takes_the_dense_tiles)
    assume(rows is not None)
    values, grads = rows
    want_values, want_grads = _dense_kernel_rows(x, y, config)
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(_gauss_transform_rows(x[:, 0], y[:, 0], config, False), values)


@pytest.mark.parametrize("s", PAPER_BANDWIDTHS)
@settings(deadline=None, max_examples=25)
@given(**_ORACLE_SAMPLES)
def test_weighted_rows_match_dense_oracle(s, n, m, same, seed, scale, shift, far):
    # signed weights, as the sample MMD's 1/n and -1/m, may cancel a row to
    # near 0, so the error is judged against the |w|-weighted rows
    rng = np.random.default_rng(seed)
    x, y = _oracle_samples(rng, n, m, same, scale, shift, far)
    weights = rng.uniform(-1.0, 1.0, len(y))
    config = KernelConfig((s,))
    want_values, want_grads = _dense_kernel_rows(x, y, config, weights)
    abs_values, _ = _dense_kernel_rows(x, y, config, np.abs(weights))
    diff = x[:, None, 0] - y[None, :, 0]
    abs_grads = (np.abs(weights) * np.exp(-(diff**2) / (2.0 * s)) * np.abs(diff) / s).sum(axis=1)
    for rows, a, b in ((_tiled_rows, x, y), (_gauss_transform_rows, x[:, 0], y[:, 0])):
        got = rows(a, b, config, True, weights)
        if got is None:  # a cluster too wide for the transform
            continue
        values, grads = got
        assert np.all(np.abs(values - want_values) <= 1e-12 * (abs_values + 1.0))
        assert np.all(np.abs(grads[:, 0] - want_grads[:, 0]) <= 1e-12 * (abs_grads + 1.0))
        np.testing.assert_array_equal(rows(a, b, config, False, weights), values)


def test_tiled_gradient_keeps_its_digits_far_from_zero():
    # each difference x_i - y_j is exact for a close pair, however far from
    # 0; W @ y - W.sum(1) x lost up to 5e-10 here
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 512, 2)) + 1e3
    config = KernelConfig()
    values, grads = _tiled_rows(x, y, config, grad=True)
    want_values, want_grads = _dense_kernel_rows(x, y, config)
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)


def test_translation_table_expands_the_kernel_of_one_pair():
    # a source and a target anywhere in their boxes, boxes up to the reach
    # apart: sum_kl a^k b^l T_D[k, l] is exp(-(D + b - a)^2) and its
    # b-derivative, to the 1e-17 truncation bound plus the rounding of p^2
    # terms of size at most about 1
    rho = metrics._BOX_SIDE / 2
    ends = np.linspace(-rho, rho, 5)
    a, b = (g.ravel() for g in np.meshgrid(ends, ends))
    k = np.arange(metrics._TERMS)
    table = metrics._TRANSLATION.reshape(len(metrics._OFFSETS), len(k), len(k))
    for offset, t_d in zip(metrics._OFFSETS, table):
        w = offset * metrics._BOX_SIDE + b - a
        series = np.einsum("ik,kl,il->i", a[:, None] ** k, t_d, b[:, None] ** k)
        slope = np.einsum("ik,kl,il->i", a[:, None] ** k, t_d[:, 1:] * k[1:], b[:, None] ** k[:-1])
        np.testing.assert_allclose(series, np.exp(-(w**2)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(slope, -2.0 * w * np.exp(-(w**2)), rtol=0, atol=1e-14)


def _refuse(*args, **kwargs):
    raise AssertionError("this call must not reach this kernel")


@pytest.mark.parametrize("n", [512, 2048])
def test_gmmd_shapes_never_reach_the_dense_tiles(n, monkeypatch):
    # the GMMD baseline's training steps (grad=True), its validation loss and
    # its SampleTarget all take the fast Gauss transform
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, n, 1))
    config = KernelConfig()
    xx, xy, yy = (_tiled_rows(a, b, config).sum() for a, b in ((x, x), (x, y), (y, y)))
    want_loss = (xx - 2.0 * xy + yy) / n**2
    monkeypatch.setattr(metrics, "_tiled_rows", _refuse)
    loss, grad = mmd_loss_samples(x, y, config, grad=True)
    target = SampleTarget(y, config)
    assert mmd_loss_samples(x, target, config) == pytest.approx(want_loss, rel=1e-12)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert grad.shape == x.shape


def test_far_outlier_keeps_only_occupied_boxes(monkeypatch):
    # at s = 0.01 a box is 0.035 wide, so boxes over the whole range up to
    # 1e6 would take gigabytes; only the boxes that hold samples are kept
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 512, 1))
    x[0] = 1e6
    config = KernelConfig()
    want_values, want_grads = _dense_kernel_rows(x, y, config)
    monkeypatch.setattr(metrics, "_tiled_rows", _refuse)
    tracemalloc.start()
    try:
        values, grads = _kernel_rows(x, y, config, grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)


def test_spread_samples_keep_the_gather_scratch_bounded(monkeypatch):
    # 2048 rows 100 apart: every sample pair is its own cluster and every
    # bandwidth a box of its own, 10 240 target boxes, whose neighbour
    # moments would take 84 MB in one gather
    x = 100.0 * np.arange(2048.0)[:, None]
    y = x + 0.05
    config = KernelConfig()
    s = np.array(config.bandwidths)
    gap = y - x  # 0.05 up to the rounding of y
    k = np.exp(-(gap**2) / (2.0 * s))
    monkeypatch.setattr(metrics, "_tiled_rows", _refuse)
    tracemalloc.start()
    try:
        values, grads = _kernel_rows(x, y, config, grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    np.testing.assert_allclose(values, k.sum(axis=1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[:, 0], (k * gap / s).sum(axis=1), rtol=1e-12, atol=1e-12)


def test_wide_cluster_takes_the_dense_tiles():
    # one cluster may span 2 _MAX_T sqrt(2s) at the narrowest bandwidth,
    # where the rounding of t still keeps the rows within 1e-12 of the dense
    # formula, also far from 0; a wider one is left to the tiles
    config = KernelConfig()
    width = 2.0 * metrics._MAX_T * math.sqrt(2.0 * min(config.bandwidths))
    spread = np.r_[0.0, np.random.default_rng(6).random(598), 1.0][:, None]
    x = 1e6 + 0.999 * width * spread
    y = x[::3] + 0.01
    values, grads = _gauss_transform_rows(x[:, 0], y[:, 0], config, grad=True)
    want_values, want_grads = _dense_kernel_rows(x, y, config)
    np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-12)
    wide = 1e6 + 1.001 * width * spread
    assert _gauss_transform_rows(wide[:, 0], wide[::3, 0] + 0.01, config, False) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("in_x", [True, False], ids=["x", "y"])
def test_non_finite_samples_give_the_dense_nan_loss(bad, in_x):
    # the fast path cannot take a sample that holds one, so its blocks reach
    # the dense tiles, which give a NaN loss and gradient
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 64, 1))
    (x if in_x else y)[3] = bad
    config = KernelConfig()
    assert _gauss_transform_rows(x[:, 0], y[:, 0], config, False) is None
    same = (x if in_x else y)[:, 0]
    assert _gauss_transform_rows(same, same, config, False) is None
    with np.errstate(invalid="ignore"):
        loss, grad = mmd_loss_samples(x, y, config, grad=True)
        assert np.isnan(mmd_loss_samples(x, y, config))
    assert np.isnan(loss)
    assert np.isnan(grad).any()


def test_gram_cache_reused():
    cache = GramCache((2,), BANDWIDTH_ONE)
    p = _dist([0.5, 0.5, 0.0, 0.0])
    q = _dist([0.0, 0.0, 0.5, 0.5])
    assert mmd_loss(p, q, BANDWIDTH_ONE, cache) == pytest.approx(
        mmd_loss(p, q, BANDWIDTH_ONE)
    )


@pytest.mark.parametrize("bits", [(3, 3, 3), (4,), (3,), (2, 3)])
def test_gram_cache_matches_dense_pairwise_kernel(bits):
    # the cache is built from per-register factors; the oracle sums the
    # kernel of the squared distance between every pair of bin coordinates
    n = 2 ** sum(bits)
    coords = DiscreteDistribution(np.full(n, 1.0 / n), bits).bin_coordinates()
    sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1)
    config = KernelConfig()
    dense = sum(np.exp(-sq / (2.0 * s)) for s in config.bandwidths)
    cache = GramCache(bits, config)
    # apply multiplies by the factors, one register at a time; K is symmetric.
    # v is positive, so that no entry of v @ K cancels to near 0, where a
    # relative bound would compare rounding errors
    v = np.random.default_rng(sum(bits)).random((5, n))
    np.testing.assert_allclose(cache.apply(v), v @ dense, rtol=1e-13, atol=0)
    np.testing.assert_allclose(cache.apply(v[0]), dense @ v[0], rtol=1e-13, atol=0)


def test_gram_cache_for_another_kernel_config_is_rejected():
    p, q = _dist(np.full(8, 0.125)), _dist(np.eye(8)[2])
    cache = GramCache((3,), KernelConfig())
    with pytest.raises(ValueError, match=r"built for bits \(3,\) with .*used for bits \(3,\)"):
        mmd_loss(p, q, BANDWIDTH_ONE, cache)


def test_gram_cache_for_other_bins_is_rejected():
    p, q = _dist(np.full(8, 0.125)), _dist(np.eye(8)[2])
    cache = GramCache((2,), BANDWIDTH_ONE)
    with pytest.raises(ValueError, match=r"built for bits \(2,\) with .*used for bits \(3,\)"):
        mmd_loss(p, q, BANDWIDTH_ONE, cache)
    model = BornModel(build_hardware_efficient(3, 1), np.zeros(9))
    with pytest.raises(ValueError, match=r"built for bits \(2,\)"):
        mmd_gradient(model, q, BANDWIDTH_ONE, cache=cache)


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
@given(seed=st.integers(0, 10_000), n_qubits=st.integers(1, 4))
def test_adjoint_gradient_matches_parameter_shift(seed, n_qubits):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, n_qubits)
    condition = rng.uniform(50.0, 200.0) if model.condition_range else None
    target = _random_dist(rng, 2**n_qubits)
    config = KernelConfig()
    np.testing.assert_allclose(
        mmd_gradient(model, target, config, condition),
        mmd_gradient_shift(model, target, config, condition),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("target_kind", ["exact", "batch"])
@pytest.mark.parametrize("choice", all_block_choices(), ids=lambda c: c.label)
def test_real_adjoint_gradient_matches_parameter_shift(choice, target_kind):
    # the block models run in float64; their gradient still equals the
    # parameter-shift rule's, against the exact target and against the
    # frequencies of a batch of events drawn from it, which train steps on
    # when batch_size is set and which leave most bins empty
    rng = np.random.default_rng(21)
    circuit = build_multivariate(3, 3, 4, choice)
    model = BornModel(circuit, rng.uniform(0, 2 * np.pi, circuit.n_parameters))
    p = rng.random(2**circuit.n_qubits)
    if target_kind == "batch":
        p = rng.multinomial(64, p / p.sum()).astype(float)
    target = DiscreteDistribution(p / p.sum(), circuit.register_bits)
    config = KernelConfig()
    np.testing.assert_allclose(
        mmd_gradient(model, target, config),
        mmd_gradient_shift(model, target, config),
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
    # np.full(3, 0.1) has a std of 1.4e-17, not 0, from rounding its mean
    for constant in ([1.0, 1.0], np.full(3, 0.1)):
        varied = np.arange(len(constant), dtype=float)
        with pytest.raises(ValueError, match="zero-variance"):
            pearson_correlation(np.column_stack([constant, varied]))


def test_pearson_zero_variance_counts_only_rows_of_positive_weight():
    samples = np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match=r"zero-variance feature\(s\) \[0\]"):
        pearson_correlation(samples, weights=[1.0, 2.0, 0.0])


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), rows=st.integers(2, 40))
def test_weighted_pearson_matches_corrcoef_over_repeated_rows(seed, rows):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((rows, 3)) @ rng.standard_normal((3, 3)) + 100.0
    counts = rng.integers(0, 4, rows)
    counts[:2] = 1  # two distinct rows at least
    expected = np.corrcoef(np.repeat(samples, counts, axis=0), rowvar=False)
    np.testing.assert_allclose(pearson_correlation(samples, counts), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        pearson_correlation(samples, counts / counts.sum()), expected, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("weights", [[1.0, 1.0], [1.0, -1.0, 1.0], [1.0, np.nan, 1.0],
                                     [0.0, 0.0, 0.0], [1.0, np.inf, 1.0]])
def test_pearson_rejects_bad_weights(weights):
    samples = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="weight"):
        pearson_correlation(samples, weights)


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
