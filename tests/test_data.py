"""Event preprocessing, binning, CSV ingestion and the synthetic generator."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen import data
from borngen.data import (
    CONDITION_VALUES,
    DEFAULT_CORRELATION,
    BinningSpec,
    apply_preprocess,
    discretize,
    inverse_preprocess,
    load_csv,
    preprocess,
    save_csv,
    synthesize_mfc,
    train_test_split,
)
from borngen.metrics import total_variance


def _events(e_values, pt_values, eta_values, e_in=100.0):
    return np.column_stack([e_values, pt_values, eta_values, np.full(len(e_values), e_in)])


def test_events_are_arrays():
    events = synthesize_mfc(10, 75.0, seed=0)
    assert events.shape == (10, 4) and events.dtype == float
    assert np.all(events[:, 3] == 75.0)
    train, test = train_test_split(events, 0)
    assert train.shape == test.shape == (5, 4)


def test_empty_event_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        preprocess(np.empty((0, 4)))


def test_standardization_two_point_oracle():
    # raw values {1, 3}: mean 2, population std 1 -> standardized {-1, +1}
    events = _events([1.0, 3.0], [1.0, 2.0], [0.0, 1.0], e_in=1.0)
    feats, params = preprocess(events)
    np.testing.assert_allclose(feats[:, 0], [-1.0, 1.0], atol=1e-12)
    assert params.incoming_energy_mean == pytest.approx(1.0)


def test_pt_power_compression_oracle():
    # 1024^0.1 = 2 and 59049^0.1 = 3 exactly, standardizing to {-1, +1}
    events = _events([1.0, 3.0], [1024.0, 59049.0], [0.0, 1.0], e_in=1.0)
    feats, params = preprocess(events)
    np.testing.assert_allclose(feats[:, 1], [-1.0, 1.0], atol=1e-10)
    assert params.feature_means[1] == pytest.approx(2.5)


def test_constant_feature_error():
    events = _events([1.0, 2.0], [5.0, 5.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="pt"):
        preprocess(events)


def test_preprocess_round_trip():
    events = synthesize_mfc(500, 100.0, seed=1)
    feats, params = preprocess(events)
    physical = inverse_preprocess(feats, params)
    np.testing.assert_allclose(physical, events[:, :3], rtol=1e-9, atol=1e-9)


def test_apply_preprocess_uses_frozen_statistics():
    train = synthesize_mfc(1000, 100.0, seed=2)
    test = synthesize_mfc(1000, 100.0, seed=3)
    _, params = preprocess(train)
    feats = apply_preprocess(test, params)
    # frozen statistics: the test features are not exactly zero-mean
    assert abs(feats[:, 0].mean()) > 1e-6


@pytest.mark.parametrize("columns", [[0], [1], [2], [0, 2], [2, 0], [0, 1, 2]])
def test_preprocessed_columns_are_apply_preprocess_columns_bitwise(columns):
    events = synthesize_mfc(1001, 125.0, seed=6)
    train, test = train_test_split(events, 6)
    _, params = preprocess(train)
    for rows in (test, train, test[::3]):
        got = data._preprocessed_columns(rows, params, columns)
        assert got.shape == (len(rows), len(columns))
        assert (got == apply_preprocess(rows, params)[:, columns]).all()
    # the training set's own statistics give preprocess's features bitwise
    feats, params = preprocess(train)
    assert (data._preprocessed_columns(train, params, columns) == feats[:, columns]).all()


def _row_major_preprocess(events):
    """preprocess's formulas on the C-ordered (n, 3) raw features, with
    numpy's row-major mean(axis=0) and std(axis=0)."""
    incoming = float(events[:, 3].mean())
    raw = np.empty((len(events), 3))
    raw[:, 0] = events[:, 0] / incoming
    raw[:, 1] = events[:, 1] ** 0.1
    raw[:, 2] = events[:, 2]
    means, stds = raw.mean(axis=0), raw.std(axis=0)
    return (raw - means) / stds, incoming, means, stds


@pytest.mark.parametrize("n_rows", [2, 7, 8191, 8193, 30720, 200_000])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_preprocess_is_the_row_major_formulas_bitwise(n_rows, layout):
    rng = np.random.default_rng(n_rows)
    events = _events(rng.uniform(10, 80, n_rows), rng.uniform(1, 58, n_rows),
                     rng.normal(2, 0.3, n_rows), rng.choice(CONDITION_VALUES))
    if layout == "F":
        events = np.asfortranarray(events)
    elif layout == "strided":
        events = np.repeat(events, 2, axis=0)[::2]
    before = events.copy()
    feats, params = preprocess(events)
    want, incoming, means, stds = _row_major_preprocess(events)
    assert feats.flags.c_contiguous and feats.dtype == np.float64
    assert feats.tobytes() == want.tobytes()
    assert params.incoming_energy_mean == incoming
    assert params.feature_means == tuple(map(float, means))
    assert params.feature_stds == tuple(map(float, stds))
    assert (events == before).all()  # the caller's events are not written into


@pytest.mark.parametrize("column, value, named", [
    (2, 1e200, "['eta']"),  # eta's squared deviations overflow, so its std does
    (0, 1e300, "['e_out']"),  # e_out / mean(e_in) overflows
    (3, 1e308, "['e_in']"),  # the sum of e_in overflows
])
def test_preprocess_rejects_statistics_that_overflow(column, value, named):
    events = synthesize_mfc(64, 50.0, seed=0)
    events[:, column] = value * np.random.default_rng(0).uniform(0.5, 1.0, 64)
    if column == 2:
        events[::2, column] *= -1.0
    if column == 0:
        events[:, 3] = 1e-10
    with pytest.raises(ValueError, match=rf"non-finite .*{re.escape(named)}: cannot standardize"):
        preprocess(events)


def test_binning_spec_validation():
    with pytest.raises(ValueError):
        BinningSpec((3,), (0.0,), (1.0,))  # not a power of two
    with pytest.raises(ValueError):
        BinningSpec((4,), (1.0,), (0.0,))  # lower >= upper
    with pytest.raises(ValueError):
        BinningSpec((4, 4), (0.0,), (1.0,))


def test_binning_spec_bounds_must_be_finite():
    # NaN fails every comparison, so lower < upper alone lets it through
    with pytest.raises(ValueError, match=r"feature 0: bin bounds \(nan, nan\) must be finite"):
        BinningSpec.from_training_data([[0.0], [np.nan], [1.0]], [4])
    with pytest.raises(ValueError, match="feature 1: bin bounds"):
        BinningSpec((4, 4), (0.0, -np.inf), (1.0, 1.0))
    with pytest.raises(ValueError, match="feature 0: bin bounds"):
        BinningSpec((4,), (0.0,), (np.inf,))
    # a bool or a string is no bound: False once passed as 0, and "0" raised a TypeError
    for lower in (False, "0"):
        with pytest.raises(ValueError, match="feature 0: bin bounds"):
            BinningSpec((4,), (lower,), (1.0,))


@pytest.mark.parametrize("n", [4.5, 4.0, True, "4", 6, 1])
def test_binning_spec_bin_counts_must_be_integer_powers_of_two(n):
    # 4.5 once binned into 4 bins through int(), and 4.0 raised a TypeError from &
    message = rf"feature 1: bin count {re.escape(repr(n))} is not a power of two >= 2"
    with pytest.raises(ValueError, match=message):
        BinningSpec.from_training_data([[0.0, 0.0], [1.0, 1.0]], [4, n])
    with pytest.raises(ValueError, match=message):
        BinningSpec((4, n), (0.0, 0.0), (1.0, 1.0))


def test_binning_spec_takes_numpy_bin_counts():
    spec = BinningSpec.from_training_data([[0.0], [1.0]], [np.int64(8)])
    assert spec.n_bins == (8,) and spec.register_bits == (3,)


def test_bin_centers():
    spec = BinningSpec((4,), (0.0,), (1.0,))
    np.testing.assert_allclose(spec.bin_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_discretize_point_mass():
    spec = BinningSpec((4,), (0.0,), (1.0,))
    dist = discretize(np.full((10, 1), 0.3), spec)
    np.testing.assert_allclose(dist.probs, [0.0, 1.0, 0.0, 0.0])


def test_discretize_uniform_centers():
    spec = BinningSpec((4,), (0.0,), (1.0,))
    dist = discretize(np.array([[0.125], [0.375], [0.625], [0.875]]), spec)
    np.testing.assert_allclose(dist.probs, [0.25, 0.25, 0.25, 0.25])


def test_discretize_clips_out_of_range():
    spec = BinningSpec((4,), (0.0,), (1.0,))
    dist = discretize(np.array([[-5.0], [1.0], [7.0], [1e30], [-1e30]]), spec)
    # upper edge and beyond land in the last bin; below range in the first,
    # also past the range of a bin index (1e30 once landed in bin 0)
    np.testing.assert_allclose(dist.probs, [2 / 5, 0.0, 0.0, 3 / 5])
    assert dist.probs.sum() == pytest.approx(1.0)


def test_discretize_joint_packing():
    spec = BinningSpec((2, 4), (0.0, 0.0), (1.0, 1.0))
    # feature 0 in bin 1, feature 1 in bin 2 -> flat = 1 + (2 << 1) = 5
    dist = discretize(np.array([[0.75, 0.6]]), spec)
    assert dist.probs[5] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "bad", [[np.nan], [np.inf], [-np.inf], [np.nan, np.inf, -np.inf]], ids=["nan", "inf", "-inf", "all"]
)
def test_discretize_rejects_a_value_it_cannot_bin(bad):
    # each once landed in bin 0, after numpy warned of an invalid cast
    spec = BinningSpec((4,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="feature 0 has a NaN or infinite value"):
        discretize(np.array([[0.9], *[[v] for v in bad]]), spec)
    spec = BinningSpec((4, 2), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="feature 1 has a NaN or infinite value"):
        discretize(np.array([[0.9, 0.5], *[[0.5, v] for v in bad]]), spec)


def test_discretize_rejects_no_events():
    # the distribution of no events would be 0 / 0 in every bin
    with pytest.raises(ValueError, match="no events"):
        discretize(np.empty((0, 1)), BinningSpec((4,), (0.0,), (1.0,)))


def test_discretize_dimension_check():
    spec = BinningSpec((4,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        discretize(np.zeros((3, 2)), spec)


def test_generator_pearson_matches_target():
    events = synthesize_mfc(100_000, 125.0, seed=0)
    r = np.corrcoef(events[:, :3].T)
    targets = {(0, 1): 0.43, (0, 2): 0.89, (1, 2): 0.61}
    for (i, j), want in targets.items():
        assert abs(r[i, j] - want) <= 0.03


def test_generator_identity_correlation():
    events = synthesize_mfc(100_000, 125.0, np.eye(3), seed=1)
    r = np.corrcoef(events[:, :3].T)
    off = [abs(r[0, 1]), abs(r[0, 2]), abs(r[1, 2])]
    assert max(off) <= 0.02


def test_generator_determinism():
    a = synthesize_mfc(100, 75.0, seed=9)
    b = synthesize_mfc(100, 75.0, seed=9)
    np.testing.assert_array_equal(a, b)


def test_generator_validation():
    with pytest.raises(ValueError):
        synthesize_mfc(0, 100.0)
    with pytest.raises(ValueError):
        synthesize_mfc(10, 100.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
    bad = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]])
    with pytest.raises(ValueError):
        synthesize_mfc(10, 100.0, bad)  # not positive definite


def test_generator_default_correlation_in_any_form_gives_the_same_events():
    reference = synthesize_mfc(257, 75.0, seed=4)
    for corr in (None, DEFAULT_CORRELATION, DEFAULT_CORRELATION.copy(), DEFAULT_CORRELATION.tolist()):
        assert (synthesize_mfc(257, 75.0, corr, seed=4) == reference).all()
    # the default is known by identity, so it cannot be changed in place
    assert not DEFAULT_CORRELATION.flags.writeable
    with pytest.raises(ValueError):
        DEFAULT_CORRELATION[0, 1] = 0.5


def test_generator_rejects_a_bad_correlation_on_every_call():
    asymmetric = DEFAULT_CORRELATION.copy()
    asymmetric[0, 1] = 0.2
    not_unit = DEFAULT_CORRELATION + 0.1 * np.eye(3)
    not_positive_definite = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]])
    for _ in range(2):
        for bad in (asymmetric, not_unit, not_positive_definite):
            synthesize_mfc(8, 100.0, seed=1)  # a default call in between changes nothing
            with pytest.raises(ValueError):
                synthesize_mfc(8, 100.0, bad, seed=1)


def test_generator_condition_drift_distinguishable():
    low = synthesize_mfc(10240, 50.0, seed=2)
    high = synthesize_mfc(10240, 200.0, seed=3)
    feats, _ = preprocess(np.concatenate([low, high]))
    spec = BinningSpec.from_training_data(feats[:, :1], [8])
    tv = total_variance(
        discretize(feats[: len(low), :1], spec),
        discretize(feats[len(low) :, :1], spec),
    )
    assert tv >= 0.2


def test_generator_positive_quantities():
    arr = synthesize_mfc(10_000, 50.0, seed=4)
    assert np.all(arr[:, 0] > 0)
    assert np.all(arr[:, 1] >= 0)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_split_disjoint_exhaustive_stable(seed):
    events = synthesize_mfc(64, 100.0, seed=0)
    train_a, test_a = train_test_split(events, seed)
    train_b, test_b = train_test_split(events, seed)
    np.testing.assert_array_equal(train_a, train_b)
    np.testing.assert_array_equal(test_a, test_b)
    assert len(train_a) == len(test_a) == 32
    combined = sorted(map(tuple, np.concatenate([train_a, test_a]).tolist()))
    original = sorted(map(tuple, events.tolist()))
    assert combined == original


@pytest.mark.parametrize("n_rows", [1, 2, 63, 64])
def test_split_is_its_row_order_applied(n_rows):
    # sets of one length split alike: one drawn order serves them all
    order = data._split_order(n_rows, 7)
    assert sorted(order.tolist()) == list(range(n_rows))
    for seed in (0, 1):
        events = synthesize_mfc(n_rows, 100.0, seed=seed)
        train, test = train_test_split(events, 7)
        assert len(train) == n_rows // 2 and len(test) == n_rows - n_rows // 2
        by_order = data._split_by(events, order)
        assert (by_order[0] == train).all() and (by_order[1] == test).all()


@pytest.mark.parametrize("n_rows", [1, 2, 7, 10_240])
def test_split_by_takes_the_rows_that_fancy_indexing_takes(n_rows):
    order = data._split_order(n_rows, 3)
    half = n_rows // 2
    for events in (synthesize_mfc(n_rows, 75.0, seed=3),
                   np.asfortranarray(synthesize_mfc(n_rows, 75.0, seed=4))):
        train, test = data._split_by(events, order)
        assert train.tobytes() == events[order[:half]].tobytes()
        assert test.tobytes() == events[order[half:]].tobytes()
        # the train half taken straight into rows of a pooled array
        pool = np.zeros((half + 3, 4))
        into, test = data._split_by(events, order, pool[2:2 + half])
        assert np.shares_memory(into, pool) or half == 0
        assert pool[2:2 + half].tobytes() == events[order[:half]].tobytes()
        assert not pool[:2].any() and not pool[2 + half:].any()
        assert test.tobytes() == events[order[half:]].tobytes()


def test_csv_round_trip(tmp_path):
    events = synthesize_mfc(50, 125.0, seed=5)
    path = tmp_path / "events.csv"
    save_csv(events, path)
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded, events)
    save_csv(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("e_out,pt,eta\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="e_in"):
        load_csv(path)


def test_csv_malformed_row_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["e_out,pt,eta,e_in"] + ["1.0,2.0,3.0,100.0"] * 6 + ["oops,2.0,3.0,100.0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 7"):
        load_csv(path)


def test_csv_empty_after_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("e_out,pt,eta,e_in\n")
    assert load_csv(path).shape == (0, 4)


def test_event_record_validation(tmp_path):
    # each CSV row is checked as it is read, and the error names the row
    path = tmp_path / "bad.csv"
    bad_rows = {
        "-1.0,1.0,0.0,100.0": "e_out must be positive",
        "0.0,1.0,0.0,100.0": "e_out must be positive",
        "1.0,-1.0,0.0,100.0": "pt must be nonnegative",
        "nan,1.0,0.0,100.0": "e_out must be finite",
        "1.0,1.0,inf,100.0": "eta must be finite",
        "1.0,1.0,0.0,-inf": "e_in must be finite",
    }
    for row, message in bad_rows.items():
        path.write_text("\n".join(["e_out,pt,eta,e_in", "1.0,0.0,3.0,100.0", row]) + "\n")
        with pytest.raises(ValueError, match=f"malformed row 2: {message}"):
            load_csv(path)
