"""Distribution container: bin coordinates, marginals, sampling."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from borngen.data import synthesize_mfc
from borngen.distributions import DiscreteDistribution, marginal, sample
from borngen.noise import NoiseConfig, estimate_confusion_matrix
from borngen.optimize import init_parameters


def test_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.ones(3) / 3, (2,))  # wrong length
    with pytest.raises(ValueError):
        DiscreteDistribution(np.ones((2, 2)) / 4, (2,))


def test_bin_coordinates_match_bin_tuple():
    # feature 0 takes the low bits of a flat index: with bits (1, 2), flat
    # index 5 = 0b101 is bin 1 of feature 0 and bin 0b10 = 2 of feature 1
    dist = DiscreteDistribution(np.ones(8) / 8, (1, 2))
    want = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    coords = dist.bin_coordinates()
    np.testing.assert_array_equal(coords, want)
    assert coords.dtype == np.intp  # indices, usable to index bin centres


def test_marginal_point_mass():
    probs = np.zeros(16)
    probs[0] = 1.0
    dist = DiscreteDistribution(probs, (2, 2))
    for j in range(2):
        m = marginal(dist, j)
        assert m.probs[0] == pytest.approx(1.0)


def test_marginal_of_product_distribution():
    p = np.array([0.7, 0.3])
    q = np.array([0.1, 0.2, 0.3, 0.4])
    # feature 0 in the low bit: joint[flat] = p[flat & 1] * q[flat >> 1]
    joint = np.array([p[f & 1] * q[f >> 1] for f in range(8)])
    dist = DiscreteDistribution(joint, (1, 2))
    np.testing.assert_allclose(marginal(dist, 0).probs, p)
    np.testing.assert_allclose(marginal(dist, 1).probs, q)
    np.testing.assert_array_equal(marginal(dist, np.int64(1)).probs, marginal(dist, 1).probs)


def test_marginal_unknown_feature():
    dist = DiscreteDistribution(np.array([0.1, 0.2, 0.3, 0.4]), (1, 1))
    for feature in (1.7, True, "0", -1, 2):  # a float or a bool is not cast to an index
        with pytest.raises(KeyError, match="out of range"):
            marginal(dist, feature)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_marginals_of_random_joint_are_normalized(seed):
    rng = np.random.default_rng(seed)
    probs = rng.random(32)
    probs /= probs.sum()
    dist = DiscreteDistribution(probs, (2, 1, 2))
    for j in range(3):
        m = marginal(dist, j)
        assert m.probs.sum() == pytest.approx(1.0, abs=1e-10)
    # summing marginal 0 over its own axis reproduces a direct reduction
    direct = np.zeros(4)
    for flat, p in enumerate(probs):
        direct[flat & 3] += p
    np.testing.assert_allclose(marginal(dist, 0).probs, direct, atol=1e-12)


def test_sample_deterministic():
    dist = DiscreteDistribution(np.array([0.25, 0.75]), (1,))
    a = sample(dist, 100, 42)
    b = sample(dist, 100, 42)
    np.testing.assert_array_equal(a, b)


def test_sample_draws_from_a_generator_what_its_seed_draws():
    dist = DiscreteDistribution(np.array([0.1, 0.2, 0.3, 0.4]), (2,))
    rng = np.random.default_rng(42)
    first, second = sample(dist, 100, rng), sample(dist, 100, rng)
    # the generator is used, not reseeded: two calls continue one stream
    np.testing.assert_array_equal(first, sample(dist, 100, 42))
    assert not np.array_equal(first, second)


def test_sample_frequencies():
    dist = DiscreteDistribution(np.array([0.25, 0.75]), (1,))
    draws = sample(dist, 100_000, 0)
    assert np.mean(draws == 1) == pytest.approx(0.75, abs=0.01)


def test_sample_rejects_bad_shots():
    dist = DiscreteDistribution(np.array([1.0, 0.0]), (1,))
    with pytest.raises(ValueError):
        sample(dist, 0, 0)


@settings(deadline=None, max_examples=200)
@given(
    bits=st.integers(0, 9),
    kind=st.sampled_from(["uniform", "zeros", "peaked", "dyadic"]),
    seed=st.integers(0, 2**32 - 1),
    n_shots=st.integers(1, 100_000),
)
def test_sample_draws_what_rng_choice_draws(bits, kind, seed, n_shots):
    rng = np.random.default_rng(seed)
    n = 2**bits
    probs = rng.random(n)
    if kind == "zeros":  # runs of empty bins, so equal cdf values
        probs[rng.random(n) < 0.7] = 0.0
        probs[rng.integers(n)] = rng.random() + 0.1
    elif kind == "peaked":  # most mass in a few bins, the rest far below 1/4096
        probs = probs**60
        probs[rng.integers(n)] = 1.0
    elif kind == "dyadic":  # cdf steps on the sampler's bucket edges
        probs = rng.multinomial(4096, np.full(n, 1.0 / n)).astype(float)
    q = probs / probs.sum()
    expected = np.random.default_rng(seed).choice(len(q), n_shots, p=q)
    draws = sample(DiscreteDistribution(probs, (bits,)), n_shots, seed)
    assert draws.dtype == expected.dtype
    np.testing.assert_array_equal(draws, expected)


@settings(deadline=None, max_examples=100)
@given(
    bits=st.integers(1, 9),
    zeros=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
    n_shots=st.integers(1, 100_000),
)
def test_sample_is_the_search_of_its_cdf(bits, zeros, seed, n_shots):
    rng = np.random.default_rng(seed)
    probs = rng.random(2**bits) ** rng.choice([1, 8, 60])
    probs[rng.random(len(probs)) < zeros] = 0.0
    probs[rng.integers(len(probs))] += 0.1
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    expected = cdf.searchsorted(np.random.default_rng(seed).random(n_shots), side="right")
    draws = sample(DiscreteDistribution(probs, (bits,)), n_shots, seed)
    assert draws.dtype == expected.dtype
    np.testing.assert_array_equal(draws, expected)


@pytest.mark.parametrize("probs", [[0.5, -0.1], [np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0],
                                   [-1.0, -1.0]])
def test_sample_rejects_bad_probs(probs):
    with pytest.raises(ValueError, match="probs"):
        sample(DiscreteDistribution(np.array(probs), (1,)), 10, 0)


def test_distribution_carries_no_condition():
    assert [f.name for f in fields(DiscreteDistribution)] == ["probs", "register_bits"]


_UNIFORM = DiscreteDistribution(np.full(4, 0.25), (2,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda n: sample(_UNIFORM, n, 0), "n_shots must be an integer >= 1"),
        (lambda n: estimate_confusion_matrix(1, NoiseConfig(0.1), n),
         "shots_per_basis_state must be an integer >= 1"),
        (lambda n: synthesize_mfc(n, 50.0), "n_events must be an integer >= 1"),
        (lambda n: init_parameters(n), "n must be an integer >= 0"),
    ],
    ids=["sample", "calibration", "synthesize_mfc", "init_parameters"],
)
@pytest.mark.parametrize("n", [2.5, True])
def test_public_count_arguments_must_be_integers(call, message, n):
    # a float once failed inside numpy with a TypeError, or drew 2 shots per
    # state and failed on the columns' sums; True counted as one
    with pytest.raises(ValueError, match=f"^{message}, not {n!r}$"):
        call(n)
